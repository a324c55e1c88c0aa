//! Per-file analysis context: everything the lint passes need beyond
//! raw tokens — bracket matching, enclosing-function tracking (name,
//! visibility, receiver, `# Panics` docs), `#[cfg(test)]` regions, and
//! parsed suppression comments.

use crate::lex::{lex, Comment, Lexed, Tok, TokKind};
use crate::LintKind;

/// Which part of a crate a file belongs to. Several lints only apply to
/// library code: tests, benches, and examples may unwrap, read the
/// environment, and iterate hash maps freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `src/` of a crate (including `src/bin/` executables).
    Lib,
    /// Integration tests (`tests/`).
    Tests,
    /// Benchmarks (`benches/`).
    Benches,
    /// Examples (`examples/`).
    Examples,
}

/// A function item: where it is, what it is called, and what its docs
/// promise.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Token index of the name.
    pub name_tok: u32,
    /// `pub` (any restriction) visibility, or a method of an
    /// `impl Trait for Type` block, which is as public as the trait.
    pub is_pub: bool,
    /// The attached doc comment contains a `# Panics` section.
    pub has_panics_doc: bool,
    /// Receiver is `&mut self`.
    pub mut_self: bool,
    /// Token range of the body braces, `None` for bodyless trait
    /// method declarations.
    pub body: Option<(u32, u32)>,
}

/// One parsed allow directive (see `parse_suppressions` for the
/// comment grammar).
#[derive(Debug)]
pub struct Suppression {
    /// 1-based line of the comment. The suppression covers findings on
    /// this line and the next one.
    pub line: u32,
    /// The lints it silences.
    pub lints: Vec<LintKind>,
    /// The mandatory written justification.
    pub reason: String,
}

/// Everything a lint pass sees for one file.
pub struct FileCtx<'a> {
    /// Source text.
    pub src: &'a str,
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    /// Crate the file belongs to (`core`, `exec`, …; `mqo` for the
    /// umbrella package, `shim-rand` etc. for shims).
    pub crate_name: String,
    /// Which section of the crate.
    pub section: Section,
    /// Lexer output.
    pub lexed: Lexed,
    /// For each `(`/`[`/`{` token, the index of its matching close (and
    /// vice versa); `u32::MAX` when unmatched or not a bracket.
    pub matching: Vec<u32>,
    /// All function items in source order.
    pub fns: Vec<FnInfo>,
    /// For each token, index into `fns` of the innermost enclosing
    /// function body, or `u32::MAX`.
    pub enclosing: Vec<u32>,
    /// Token ranges (inclusive braces) under `#[cfg(test)]` / `#[test]`
    /// / `#[bench]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// Parsed allow comments.
    pub suppressions: Vec<Suppression>,
    /// Comments that carry the `mqo-analyze` marker but do not parse as
    /// a well-formed suppression (missing reason, unknown lint, …).
    pub malformed: Vec<(Comment, String)>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context for one file.
    #[must_use]
    pub fn build(path: &'a str, src: &'a str) -> FileCtx<'a> {
        let (crate_name, section) = classify(path);
        let lexed = lex(src);
        let matching = match_brackets(src, &lexed.toks);
        let (fns, enclosing) = collect_fns(src, &lexed, &matching);
        let test_ranges = collect_test_ranges(src, &lexed.toks, &matching);
        let (suppressions, malformed) = parse_suppressions(src, &lexed);
        FileCtx {
            src,
            path,
            crate_name,
            section,
            lexed,
            matching,
            fns,
            enclosing,
            test_ranges,
            suppressions,
            malformed,
        }
    }

    /// The tokens.
    #[must_use]
    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    /// True when token `i` sits inside a `#[cfg(test)]`/`#[test]` item.
    #[must_use]
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo as usize) <= i && i <= hi as usize)
    }

    /// The innermost function containing token `i`, if any.
    #[must_use]
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnInfo> {
        let id = *self.enclosing.get(i)?;
        (id != u32::MAX).then(|| &self.fns[id as usize])
    }
}

/// Derives `(crate, section)` from a repo-relative path.
fn classify(path: &str) -> (String, Section) {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] => ((*name).to_string(), Section::Lib),
        ["crates", name, "tests", ..] => ((*name).to_string(), Section::Tests),
        ["crates", name, "benches", ..] => ((*name).to_string(), Section::Benches),
        ["shims", name, "src", ..] => (format!("shim-{name}"), Section::Lib),
        ["src", ..] => ("mqo".to_string(), Section::Lib),
        ["tests", ..] => ("mqo".to_string(), Section::Tests),
        ["examples", ..] => ("mqo".to_string(), Section::Examples),
        ["benches", ..] => ("mqo".to_string(), Section::Benches),
        _ => ("mqo".to_string(), Section::Lib),
    }
}

/// Pairs up `(`/`)`, `[`/`]`, `{`/`}`. Strings and comments are already
/// out of the stream, so depth counting is exact for compiling code.
fn match_brackets(src: &str, toks: &[Tok]) -> Vec<u32> {
    let mut out = vec![u32::MAX; toks.len()];
    let mut stacks: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        let which = match t.text(src).as_bytes()[0] {
            b'(' | b')' => 0,
            b'[' | b']' => 1,
            b'{' | b'}' => 2,
            _ => continue,
        };
        let b = t.text(src).as_bytes()[0];
        if matches!(b, b'(' | b'[' | b'{') {
            stacks[which].push(i);
        } else if let Some(open) = stacks[which].pop() {
            out[open] = i as u32;
            out[i] = open as u32;
        }
    }
    out
}

/// Finds every `fn` item: name, receiver, visibility, `# Panics` docs,
/// and body token range; then fills the per-token innermost-enclosing
/// table.
fn collect_fns(src: &str, lexed: &Lexed, matching: &[u32]) -> (Vec<FnInfo>, Vec<u32>) {
    let toks = &lexed.toks;
    let mut fns: Vec<FnInfo> = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident(src, "fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(` pointer type
        }
        let name = name_tok.text(src).to_string();
        // skip generics between the name and the parameter list
        let mut j = i + 2;
        let mut angle = 0i32;
        let params_open = loop {
            match toks.get(j) {
                None => break None,
                Some(t) if t.is_punct(src, b'<') => angle += 1,
                Some(t) if t.is_punct(src, b'>') => angle -= 1,
                Some(t) if t.is_punct(src, b'(') && angle == 0 => break Some(j),
                Some(t) if t.is_punct(src, b';') || t.is_punct(src, b'{') => break None,
                Some(_) => {}
            }
            j += 1;
        };
        let Some(open) = params_open else { continue };
        let close = matching[open];
        if close == u32::MAX {
            continue;
        }
        // receiver: `&self` / `&'a self` / `&mut self` / `self`
        let mut mut_self = false;
        {
            let mut k = open + 1;
            let mut saw_mut = false;
            while k < close as usize && k < open + 6 {
                let t = &toks[k];
                if t.is_ident(src, "mut") {
                    saw_mut = true;
                } else if t.is_ident(src, "self") {
                    // only the borrowed form matters for re-entrancy
                    mut_self = saw_mut && toks[open + 1].is_punct(src, b'&');
                    break;
                } else if !(t.is_punct(src, b'&') || t.kind == TokKind::Lifetime) {
                    break;
                }
                k += 1;
            }
        }
        // body: first `{` or `;` after the params (return type and
        // where clauses contain neither for this codebase's style)
        let mut k = close as usize + 1;
        let body = loop {
            match toks.get(k) {
                None => break None,
                Some(t) if t.is_punct(src, b'{') => {
                    let end = matching[k];
                    break (end != u32::MAX).then_some((k as u32, end));
                }
                Some(t) if t.is_punct(src, b';') => break None,
                Some(_) => k += 1,
            }
        };
        let is_pub = leading_visibility_is_pub(src, lexed, toks, i);
        let has_panics_doc = docs_have_panics(src, lexed, toks[i].lo);
        fns.push(FnInfo {
            name,
            name_tok: (i + 1) as u32,
            is_pub,
            has_panics_doc,
            mut_self,
            body,
        });
    }
    // a method of a trait impl, not a fn nested in some body inside it
    for block in trait_impl_bodies(src, toks, matching) {
        let inside = |i: u32| block.0 < i && i < block.1;
        let bodies: Vec<(u32, u32)> = fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(lo, _)| inside(lo))
            .collect();
        for f in &mut fns {
            let at = f.name_tok;
            if inside(at) && !bodies.iter().any(|&(lo, hi)| lo < at && at < hi) {
                f.is_pub = true;
            }
        }
    }
    let mut enclosing = vec![u32::MAX; toks.len()];
    for (id, f) in fns.iter().enumerate() {
        if let Some((lo, hi)) = f.body {
            // later (nested) fns overwrite: innermost wins
            for slot in &mut enclosing[lo as usize..=hi as usize] {
                *slot = id as u32;
            }
        }
    }
    (fns, enclosing)
}

/// Token ranges (inclusive braces) of `impl .. for Type { .. }` item
/// blocks. Only an `impl` that starts an item counts, not `impl Trait`
/// in a type; `->` inside the header is not a closing angle bracket.
fn trait_impl_bodies(src: &str, toks: &[Tok], matching: &[u32]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let starts_item = i == 0 || {
            let prev = &toks[i - 1];
            [b'}', b';', b'{', b']']
                .iter()
                .any(|&b| prev.is_punct(src, b))
                || prev.is_ident(src, "unsafe")
        };
        if !toks[i].is_ident(src, "impl") || !starts_item {
            continue;
        }
        let (mut angle, mut is_for) = (0i32, false);
        for j in i + 1..toks.len() {
            let t = &toks[j];
            if t.is_punct(src, b'<') {
                angle += 1;
            } else if t.is_punct(src, b'>') && !toks[j - 1].is_punct(src, b'-') {
                angle -= 1;
            } else if angle == 0 && t.is_ident(src, "for") {
                is_for = true;
            } else if t.is_punct(src, b'{') {
                if is_for && matching[j] != u32::MAX {
                    out.push((j as u32, matching[j]));
                }
                break;
            } else if t.is_punct(src, b';') {
                break;
            }
        }
    }
    out
}

/// Walks back over the item prefix (`pub(crate) unsafe const async
/// extern "C"`) looking for `pub`.
fn leading_visibility_is_pub(src: &str, _lexed: &Lexed, toks: &[Tok], fn_idx: usize) -> bool {
    let prefix_words = ["unsafe", "const", "async", "extern", "crate", "super", "in"];
    let mut i = fn_idx;
    while i > 0 {
        let t = &toks[i - 1];
        if t.is_ident(src, "pub") {
            return true;
        }
        let is_prefix = (t.kind == TokKind::Ident && prefix_words.contains(&t.text(src)))
            || t.is_punct(src, b'(')
            || t.is_punct(src, b')')
            || t.kind == TokKind::Str; // extern "C"
        if !is_prefix {
            return false;
        }
        i -= 1;
    }
    false
}

/// True when the doc comment block directly above the item starting at
/// byte `item_lo` (attributes and plain comments may interleave)
/// contains a `# Panics` section.
fn docs_have_panics(src: &str, lexed: &Lexed, item_lo: u32) -> bool {
    let mut line = lexed.line_of(item_lo);
    while line > 1 {
        line -= 1;
        let t = lexed.line_text(src, line).trim();
        if t.starts_with("///") || t.starts_with("//!") {
            if t.contains("# Panics") {
                return true;
            }
        } else if !(t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")) {
            return false;
        }
    }
    false
}

/// Token ranges owned by `#[cfg(test)]` / `#[test]` / `#[bench]` items.
fn collect_test_ranges(src: &str, toks: &[Tok], matching: &[u32]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !(toks[i].is_punct(src, b'#') && toks[i + 1].is_punct(src, b'[')) {
            i += 1;
            continue;
        }
        let close = matching[i + 1];
        if close == u32::MAX {
            i += 1;
            continue;
        }
        let is_test = toks[i + 2..close as usize]
            .iter()
            .any(|t| t.is_ident(src, "test") || t.is_ident(src, "bench"));
        let mut k = close as usize + 1;
        if is_test {
            // skip further stacked attributes, then find the item body
            loop {
                match toks.get(k) {
                    Some(t)
                        if t.is_punct(src, b'#')
                            && toks.get(k + 1).is_some_and(|n| n.is_punct(src, b'[')) =>
                    {
                        let c = matching[k + 1];
                        if c == u32::MAX {
                            break;
                        }
                        k = c as usize + 1;
                    }
                    Some(t) if t.is_punct(src, b'{') => {
                        let end = matching[k];
                        if end != u32::MAX {
                            out.push((k as u32, end));
                        }
                        break;
                    }
                    Some(t) if t.is_punct(src, b';') => break, // `#[cfg(test)] use …;`
                    Some(_) => k += 1,
                    None => break,
                }
            }
        }
        i = close as usize + 1;
    }
    out
}

/// Parses every `mqo-analyze` directive comment. The grammar is the
/// marker, a colon, `allow` with a comma-separated lint list, another
/// colon, and a free-text reason — all mandatory. An allow that names
/// an unknown lint or omits the reason is reported, not honored.
/// Mentions of `mqo-analyze` *without* the directive colon (prose,
/// usage strings) are not directives and are ignored, and so are doc
/// comments: a directive quoted in documentation is an example.
fn parse_suppressions(src: &str, lexed: &Lexed) -> (Vec<Suppression>, Vec<(Comment, String)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        let text = c.text(src);
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|doc| text.starts_with(doc))
        {
            continue;
        }
        let Some(pos) = text.find("mqo-analyze") else {
            continue;
        };
        // a directive has a colon right after the marker; anything else
        // is prose about the tool
        if !text[pos + "mqo-analyze".len()..]
            .trim_start()
            .starts_with(':')
        {
            continue;
        }
        match parse_allow(&text[pos..]) {
            Ok((lints, reason)) => ok.push(Suppression {
                line: lexed.line_of(c.lo),
                lints,
                reason,
            }),
            Err(why) => bad.push((*c, why)),
        }
    }
    (ok, bad)
}

fn parse_allow(text: &str) -> Result<(Vec<LintKind>, String), String> {
    let rest = text
        .strip_prefix("mqo-analyze")
        .and_then(|r| r.trim_start().strip_prefix(':'))
        .ok_or_else(|| "expected `mqo-analyze: allow(...)`".to_string())?;
    let rest = rest
        .trim_start()
        .strip_prefix("allow")
        .ok_or_else(|| "only `allow(...)` directives exist".to_string())?;
    let rest = rest
        .trim_start()
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = rest
        .find(')')
        .ok_or_else(|| "unclosed `allow(` list".to_string())?;
    let mut lints = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        let kind = LintKind::from_name(name)
            .filter(|k| k.suppressible())
            .ok_or_else(|| format!("unknown lint `{name}` in allow list"))?;
        lints.push(kind);
    }
    if lints.is_empty() {
        return Err("empty allow list".to_string());
    }
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if reason.is_empty() {
        return Err("suppression carries no reason — write `allow(lint): why`".to_string());
    }
    Ok((lints, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/exec/src/ops.rs").0, "exec");
        assert_eq!(classify("crates/exec/tests/parity.rs").1, Section::Tests);
        assert_eq!(classify("shims/rand/src/lib.rs").0, "shim-rand");
        assert_eq!(classify("examples/quickstart.rs").1, Section::Examples);
        assert_eq!(classify("src/lib.rs"), ("mqo".to_string(), Section::Lib));
    }

    #[test]
    fn fn_info_receiver_docs_and_visibility() {
        let src = "\
/// Does things.
///
/// # Panics
///
/// Panics on Tuesdays.
pub fn documented(&mut self) {}

fn search(&mut self, x: u32) -> u32 { x }

pub(crate) fn plain<T: Ord<u8>>(v: &T) {}
";
        let ctx = FileCtx::build("crates/core/src/x.rs", src);
        let by_name = |n: &str| ctx.fns.iter().find(|f| f.name == n).unwrap();
        let d = by_name("documented");
        assert!(d.is_pub && d.has_panics_doc && d.mut_self);
        let s = by_name("search");
        assert!(!s.is_pub && !s.has_panics_doc && s.mut_self);
        let p = by_name("plain");
        assert!(p.is_pub && !p.mut_self);
    }

    #[test]
    fn trait_impl_methods_count_as_pub() {
        let src = "\
impl<F: Fn() -> u32> Strategy for Greedy<F> {
    fn search(&self) { fn helper() {} }
}
impl Greedy { fn inherent(&self) {} }
fn make() -> impl Iterator<Item = u32> { for x in 0..1 {} std::iter::empty() }
unsafe impl Send for Greedy {}
";
        let ctx = FileCtx::build("crates/core/src/x.rs", src);
        let by_name = |n: &str| ctx.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("search").is_pub);
        assert!(!by_name("helper").is_pub, "nested in a method body");
        assert!(!by_name("inherent").is_pub);
        assert!(
            !by_name("make").is_pub,
            "`impl Trait` in a type is no impl block"
        );
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = "fn outer() { fn inner() { let x = 1; } let y = 2; }";
        let ctx = FileCtx::build("crates/core/src/x.rs", src);
        let x_tok = ctx
            .toks()
            .iter()
            .position(|t| t.is_ident(src, "x"))
            .unwrap();
        let y_tok = ctx
            .toks()
            .iter()
            .position(|t| t.is_ident(src, "y"))
            .unwrap();
        assert_eq!(ctx.enclosing_fn(x_tok).unwrap().name, "inner");
        assert_eq!(ctx.enclosing_fn(y_tok).unwrap().name, "outer");
    }

    #[test]
    fn test_ranges_cover_cfg_test_mod() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}
";
        let ctx = FileCtx::build("crates/core/src/x.rs", src);
        let assert_tok = ctx
            .toks()
            .iter()
            .position(|t| t.is_ident(src, "assert"))
            .unwrap();
        let live_tok = ctx
            .toks()
            .iter()
            .position(|t| t.is_ident(src, "live"))
            .unwrap();
        assert!(ctx.in_test_code(assert_tok));
        assert!(!ctx.in_test_code(live_tok));
    }

    #[test]
    fn suppression_grammar() {
        let src = "\
// mqo-analyze: allow(env-read): bench harness knob, read once at startup
let a = 1;
// mqo-analyze: allow(env-read)
let b = 2;
// mqo-analyze: allow(no-such-lint): whatever
let c = 3;
";
        let ctx = FileCtx::build("crates/core/src/x.rs", src);
        assert_eq!(ctx.suppressions.len(), 1);
        assert_eq!(ctx.suppressions[0].line, 1);
        assert_eq!(ctx.suppressions[0].lints, vec![LintKind::EnvRead]);
        assert_eq!(ctx.malformed.len(), 2);
        assert!(ctx.malformed[0].1.contains("no reason"));
        assert!(ctx.malformed[1].1.contains("unknown lint"));
    }
}
