//! A lightweight lexical scanner for Rust sources.
//!
//! The lint rules need a few things the raw text cannot give them:
//! a view of the source with comments and string literals blanked out
//! (so `"panic!"` inside a message never trips F04), byte-accurate
//! `#[cfg(test)]` region tracking (test code may unwrap freely), and
//! `#[cfg(debug_assertions)]` tracking (debug-only validation hooks are
//! outside the release hot path the flow rules reason about). It is a character-level scanner, not a parser: it
//! understands exactly the token classes the rules query — line and
//! nested block comments, string/char/raw-string literals versus
//! lifetimes, attribute spans, and brace-matched item extents — and
//! nothing more. The item-level parser in [`crate::parser`] builds its
//! `fn`/`impl` index on top of the blanked `code` view.
//!
//! The `// <gate>: <directive>` comment channel every gate reads its
//! in-code axioms through lives here too ([`SourceFile::directive_near`],
//! [`SourceFile::directive_above`], [`justified`]), next to the small
//! token helpers the summaries share.

/// A scanned source file: original text plus derived masks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/knds/src/engine.rs`).
    pub rel: String,
    /// The original text.
    pub text: String,
    /// `text` with every comment and literal byte replaced by a space
    /// (newlines kept), so byte offsets and line numbers still line up.
    pub code: String,
    /// Per-byte: inside a `#[cfg(test)]` item (or a file under `tests/`).
    in_test: Vec<bool>,
    /// Per-byte: inside a `#[cfg(debug_assertions)]`-gated item or block.
    in_debug_gate: Vec<bool>,
}

impl SourceFile {
    /// Scans `text` as the contents of `rel`.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let code = blank_noncode(text);
        let whole_file_test = rel.contains("/tests/") || rel.starts_with("tests/");
        let mut file = SourceFile {
            rel: rel.to_string(),
            text: text.to_string(),
            code,
            in_test: vec![whole_file_test; text.len()],
            in_debug_gate: vec![false; text.len()],
        };
        file.mark_attr_regions();
        file
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        1 + self.text.as_bytes()[..offset.min(self.text.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    /// Whether the byte at `offset` is inside test-only code.
    pub fn is_test(&self, offset: usize) -> bool {
        self.in_test.get(offset).copied().unwrap_or(false)
    }

    /// Whether the byte at `offset` is inside a
    /// `#[cfg(debug_assertions)]`-gated item or statement block — code
    /// the release build compiles out, which the flow hot-path rules
    /// therefore ignore.
    pub fn is_debug_gated(&self, offset: usize) -> bool {
        self.in_debug_gate.get(offset).copied().unwrap_or(false)
    }

    /// Byte offsets of every occurrence of `needle` in non-comment,
    /// non-literal code.
    pub fn code_matches(&self, needle: &str) -> Vec<usize> {
        find_all(&self.code, (0, self.code.len()), needle).collect()
    }

    /// Whether the byte at `offset` is on the release path: neither test
    /// code nor `#[cfg(debug_assertions)]`-gated.
    pub fn is_live(&self, offset: usize) -> bool {
        !self.is_test(offset) && !self.is_debug_gated(offset)
    }

    /// The text after the directive `key` on the line holding `at`, or
    /// failing that on the line above it.
    pub fn directive_near(&self, at: usize, key: &str) -> Option<&str> {
        let (start, end) = line_bounds(&self.text, at.min(self.text.len()));
        after_key(&self.text[start..end], key).or_else(|| {
            let (s, e) = line_bounds(&self.text, start.checked_sub(1)?);
            after_key(&self.text[s..e], key)
        })
    }

    /// The text after the directive `key` in the comment/attribute block
    /// directly above the line holding `decl` (a blank line or a code
    /// line ends the block).
    pub fn directive_above(&self, decl: usize, key: &str) -> Option<&str> {
        let mut top = line_bounds(&self.text, decl).0;
        while top > 0 {
            let (s, e) = line_bounds(&self.text, top - 1);
            let line = self.text[s..e].trim_start();
            if !(line.starts_with("//") || line.starts_with('#') || line.starts_with("/*")) {
                return None;
            }
            if let Some(rest) = after_key(line, key) {
                return Some(rest);
            }
            top = s;
        }
        None
    }

    /// Directive state for a site inside the fn declared at `decl`: the
    /// site's line, the line above, or the fn's comment block.
    pub fn directive_state(&self, decl: usize, at: usize, key: &str) -> Directive {
        match self.directive_near(at, key).or_else(|| self.directive_above(decl, key)) {
            None => Directive::Absent,
            Some(payload) if justified(payload) => Directive::Justified,
            Some(_) => Directive::Bare,
        }
    }

    /// Finds `#[cfg(...)]`-style attributes and marks the item each one
    /// governs in the test / debug-gate masks.
    fn mark_attr_regions(&mut self) {
        let bytes = self.code.as_bytes();
        let mut i = 0;
        while i + 1 < bytes.len() {
            if bytes[i] == b'#' && bytes[i + 1] == b'[' {
                let Some(close) = match_bracket(bytes, i + 1, b'[', b']') else {
                    break;
                };
                // Attribute arguments can carry string literals, which
                // the code mask blanks — classify on the original.
                let attr = &self.text[i..=close];
                let is_test_cfg = attr.contains("cfg(test)") || attr.contains("cfg(all(test");
                let is_debug_cfg = attr.contains("cfg(debug_assertions)");
                if is_test_cfg || is_debug_cfg {
                    if let Some((start, end)) = self.item_after(close + 1) {
                        for o in start..=end.min(self.in_test.len() - 1) {
                            if is_test_cfg {
                                self.in_test[o] = true;
                            }
                            if is_debug_cfg {
                                self.in_debug_gate[o] = true;
                            }
                        }
                    }
                }
                i = close + 1;
            } else {
                i += 1;
            }
        }
    }

    /// The extent of the item starting at (or after) `from`: skips
    /// whitespace and further attributes, then runs to the first `;` seen
    /// before any brace, or to the matching close of the first `{`.
    fn item_after(&self, from: usize) -> Option<(usize, usize)> {
        let bytes = self.code.as_bytes();
        let mut i = from;
        loop {
            i = skip_ws(bytes, i);
            if i + 1 < bytes.len() && bytes[i] == b'#' && bytes[i + 1] == b'[' {
                i = match_bracket(bytes, i + 1, b'[', b']')? + 1;
            } else {
                break;
            }
        }
        let end = header_end(bytes, i)?;
        Some((i, if bytes[end] == b';' { end } else { match_bracket(bytes, end, b'{', b'}')? }))
    }
}

/// Where an item's header ends: the first `;` (no body) or `{` (the body
/// opens) at zero paren/bracket nesting at or after `from`, skipping the
/// argument list and any array types in a signature.
pub fn header_end(bytes: &[u8], from: usize) -> Option<usize> {
    let mut nest = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'(' | b'[' => nest += 1,
            b')' | b']' => nest = nest.saturating_sub(1),
            b';' | b'{' if nest == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// Byte offsets of every occurrence of `needle` in `hay[lo..hi]`.
pub fn find_all<'a>(
    hay: &'a str,
    (lo, hi): (usize, usize),
    needle: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let hi = hi.min(hay.len());
    let mut from = lo;
    std::iter::from_fn(move || {
        let at = from + hay.get(from..hi)?.find(needle)?;
        from = at + 1;
        Some(at)
    })
}

/// Byte bounds `[start, end)` of the line holding offset `at`.
fn line_bounds(text: &str, at: usize) -> (usize, usize) {
    let start = text[..at].rfind('\n').map_or(0, |p| p + 1);
    let end = text[at..].find('\n').map_or(text.len(), |p| at + p);
    (start, end)
}

/// The trimmed remainder of `line` after `key`, if `key` occurs.
fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.find(key).map(|pos| line[pos + key.len()..].trim())
}

/// Whether a directive payload carries a written justification. A bare
/// directive (nothing but punctuation after the key) is **not** a
/// suppression — the finding still fires, flagging the bare directive,
/// so the invariant argument can never silently evaporate.
pub fn justified(payload: &str) -> bool {
    payload.chars().any(char::is_alphanumeric)
}

/// Suppression state of a site-level directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// No directive anywhere in scope.
    Absent,
    /// Directive present with a written justification — suppresses.
    Justified,
    /// Bare directive with no justification — does **not** suppress.
    Bare,
}

/// Whether `b` can appear in a Rust identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The first offset at or after `i` whose byte fails `pred` (the end of
/// the run of `pred` bytes starting at `i`).
fn run_end(bytes: &[u8], mut i: usize, pred: impl Fn(u8) -> bool) -> usize {
    while i < bytes.len() && pred(bytes[i]) {
        i += 1;
    }
    i
}

/// The start of the run of `pred` bytes ending just before `i`.
fn run_start(bytes: &[u8], mut i: usize, pred: impl Fn(u8) -> bool) -> usize {
    while i > 0 && pred(bytes[i - 1]) {
        i -= 1;
    }
    i
}

/// The first offset at or after `i` that is not ASCII whitespace.
pub fn skip_ws(bytes: &[u8], i: usize) -> usize {
    run_end(bytes, i, |b| b.is_ascii_whitespace())
}

/// The offset just past the last non-whitespace byte before `i`.
pub fn skip_ws_back(bytes: &[u8], i: usize) -> usize {
    run_start(bytes, i, |b| b.is_ascii_whitespace())
}

/// The end of the identifier (or numeric token) starting at `i`.
pub fn ident_end(bytes: &[u8], i: usize) -> usize {
    run_end(bytes, i, is_ident_byte)
}

/// The start of the identifier (or numeric token) ending at `end`.
pub fn ident_start(bytes: &[u8], end: usize) -> usize {
    run_start(bytes, end, is_ident_byte)
}

/// Truncated single-line rendering of `code[from..to]` for messages.
pub fn snippet(code: &str, from: usize, to: usize) -> String {
    let s = code[from..to].split_whitespace().collect::<Vec<_>>().join(" ");
    if s.len() > 48 {
        format!("..{}", &s[s.len() - 46..])
    } else {
        s
    }
}

/// Reads the identifier (or numeric token) ending at `end`, extended
/// backward through `.`-chains; returns `(chain_start, last_segment)`.
pub fn ident_chain_back(bytes: &[u8], mut end: usize) -> (usize, String) {
    let mut p = ident_start(bytes, end);
    let last = String::from_utf8_lossy(&bytes[p..end]).into_owned();
    while p > 0 && bytes[p - 1] == b'.' {
        end = p - 1;
        p = ident_start(bytes, end);
        if p == end {
            break;
        }
    }
    (p, last)
}

/// Last `.`-separated segment of a receiver chain (`self.pool` → `pool`).
pub fn last_segment(receiver: &str) -> &str {
    receiver.rsplit('.').next().unwrap_or(receiver)
}

/// The identifier declared by the `name: Type` annotation whose type
/// token starts at `ty_at` (`None` for `::` paths and non-declarations).
pub fn declared_name(code: &str, ty_at: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut p = skip_ws_back(bytes, ty_at);
    if p == 0 || bytes[p - 1] != b':' {
        return None;
    }
    p -= 1;
    if p > 0 && bytes[p - 1] == b':' {
        return None; // `::` path, not a declaration
    }
    let end = skip_ws_back(bytes, p);
    let start = ident_start(bytes, end);
    (start < end).then(|| &code[start..end])
}

/// Byte offsets of `[` that index into a value (preceded by an
/// identifier, `)`, or `]`) rather than opening a literal, type, pattern,
/// attribute, or macro invocation; a lifetime (`&'a [T]`) is not a
/// value.
pub fn slice_index_sites(file: &SourceFile) -> Vec<usize> {
    const KEYWORDS: [&str; 14] = [
        "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "move",
        "while", "for", "loop",
    ];
    let bytes = file.code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let mut p = i - 1;
        while p > 0 && (bytes[p] == b' ' || bytes[p] == b'\n') {
            p -= 1;
        }
        let prev = bytes[p];
        if prev == b')' || prev == b']' {
            out.push(i);
        } else if is_ident_byte(prev) {
            let s = ident_start(bytes, p);
            let word = &file.code[s..=p];
            let lifetime = s > 0 && bytes[s - 1] == b'\'';
            if !lifetime && !KEYWORDS.contains(&word) {
                out.push(i);
            }
        }
    }
    out
}

/// Finds the offset of the bracket closing the one at `open`.
pub fn match_bracket(bytes: &[u8], open: usize, ob: u8, cb: u8) -> Option<usize> {
    debug_assert_eq!(bytes.get(open), Some(&ob));
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == ob {
            depth += 1;
        } else if b == cb {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Finds the offset of the bracket opening the one closed at `close`
/// (the backward twin of [`match_bracket`]).
pub fn match_bracket_back(bytes: &[u8], close: usize, ob: u8, cb: u8) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if bytes[i] == cb {
            depth += 1;
        } else if bytes[i] == ob {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Replaces every comment and literal byte with a space, keeping
/// newlines, so the result is offset-compatible with the input.
fn blank_noncode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    let blank = |out: &mut Vec<u8>, lo: usize, hi: usize| {
        for o in lo..hi.min(out.len()) {
            if out[o] != b'\n' {
                out[o] = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = text[i..].find('\n').map_or(bytes.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let end = skip_string(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let end = skip_raw_string(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // A lifetime: leave the tick, it cannot confuse rules.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| text.to_string())
}

/// Whether `r"`, `r#"`, `br"`, or `b"`-style literal starts here (and the
/// `r`/`b` is not the tail of an identifier).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        return bytes.get(j) == Some(&b'"');
    }
    // `b"..."` without `r` is an escaped byte string; defer to skip_string
    // by claiming it here only when a quote directly follows.
    bytes[i] == b'b' && bytes.get(j) == Some(&b'"')
}

/// End offset (exclusive) of the escaped string starting at `start`
/// (which may point at `b` of a byte string).
fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// End offset (exclusive) of the raw string starting at `start`.
fn skip_raw_string(bytes: &[u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    if bytes.get(i) == Some(&b'r') {
        i += 1;
    } else {
        return skip_string(bytes, start);
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..].iter().take(hashes).filter(|&&b| b == b'#').count() == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    bytes.len()
}

/// If a char literal starts at `i`, its end offset (exclusive); `None`
/// when the tick is a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some(b'\\') => {
            // Escaped char: scan to the closing quote.
            let mut j = i + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    _ => j += 1,
                }
            }
            Some(bytes.len())
        }
        Some(_) if bytes.get(i + 2) == Some(&b'\'') => Some(i + 3),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"unwrap()\"; // unwrap()\n/* unwrap() /* nested */ */ let b = 1;",
        );
        assert!(f.code_matches("unwrap").is_empty());
        assert_eq!(f.code_matches("let b").len(), 1);
    }

    #[test]
    fn raw_strings_and_chars_are_blanked_lifetimes_kept() {
        let f = SourceFile::parse(
            "x.rs",
            "let s = r#\"panic!\"#; let c = '\\''; fn f<'a>(x: &'a str) -> &'a str { x }",
        );
        assert!(f.code_matches("panic!").is_empty());
        assert_eq!(f.code_matches("&'a str").len(), 2);
    }

    #[test]
    fn line_numbers_are_stable_through_masking() {
        let f = SourceFile::parse("x.rs", "// one\n// two\nlet x = y.unwrap();\n");
        let hits = f.code_matches(".unwrap(");
        assert_eq!(hits.len(), 1);
        assert_eq!(f.line_of(hits[0]), 3);
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let hits = f.code_matches(".unwrap(");
        assert_eq!(hits.len(), 2);
        assert!(!f.is_test(hits[0]), "live code is not test");
        assert!(f.is_test(hits[1]), "mod tests body is test");
    }

    #[test]
    fn cfg_all_test_regions_are_marked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(all(test, not(feature = \"model\")))]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let hits = f.code_matches(".unwrap(");
        assert!(!f.is_test(hits[0]));
        assert!(f.is_test(hits[1]), "cfg(all(test, ..)) gates test code too");
    }

    #[test]
    fn files_under_tests_are_wholly_test() {
        let f = SourceFile::parse("crates/knds/tests/streaming.rs", "fn x() { y.unwrap(); }");
        assert!(f.is_test(f.code_matches(".unwrap(")[0]));
    }

    #[test]
    fn debug_assertions_blocks_are_marked() {
        let src = "fn f() {\n    step();\n    #[cfg(debug_assertions)]\n    {\n        self.check().unwrap();\n    }\n}\n#[cfg(debug_assertions)]\nfn check_all() { x.unwrap(); }\nfn live() { y.unwrap(); }\n";
        let f = SourceFile::parse("x.rs", src);
        let hits = f.code_matches(".unwrap(");
        assert_eq!(hits.len(), 3);
        assert!(f.is_debug_gated(hits[0]), "statement block is gated");
        assert!(f.is_debug_gated(hits[1]), "gated fn item is gated");
        assert!(!f.is_debug_gated(hits[2]), "plain code is not gated");
    }

    #[test]
    fn slice_index_sites_classify_brackets() {
        let f = SourceFile::parse(
            "x.rs",
            "#[derive(Debug)]\nstruct S<'a> { q: &'a [u32] }\n\
             fn f(v: &[u32], i: usize) -> u32 { let a: [u8; 2] = [0, 1]; \
             vec![3]; v[i] + (a)[0] }",
        );
        assert_eq!(slice_index_sites(&f).len(), 2, "v[i] and (a)[0] only");
    }
}
