//! Source-level lints for the MQO workspace — determinism, panic
//! surface, and concurrency readiness, checked at the *source* layer
//! the way `mqo-verify` checks the optimizer's IRs.
//!
//! Every lint family is grounded in a bug this repo actually shipped
//! and later fixed by hand:
//!
//! | lint | past bug |
//! |---|---|
//! | [`LintKind::FloatOrdering`] | PR 3: NaN-corrupted `BinaryHeap` order from `partial_cmp(..).unwrap_or(Equal)` |
//! | [`LintKind::HashIteration`] | PR 3: hash-order-dependent `MatSet` cost sums differing by 1 ULP |
//! | [`LintKind::EnvRead`] | PR 5: per-call `env::var` re-parses on the submit hot path |
//! | [`LintKind::PanicPath`] | unaudited panic paths in DAG fingerprinting |
//! | [`LintKind::MutSelfEntry`] | ROADMAP: shared-`MvStore` serving needs pure `&self` planning |
//! | [`LintKind::InteriorMut`] | ROADMAP: planner state must become `Sync` |
//!
//! The implementation is a token-stream walker in the style of
//! `mqo-sql`'s lexer — no `syn`, no type information, and no
//! dependency but `mqo-util` (for the shared caret renderer).
//! That makes every lint a *heuristic*: sound enough to catch the
//! real patterns above, with an escape hatch for the cases it cannot
//! judge. The escape hatch is an inline comment with a mandatory
//! written reason:
//!
//! ```text
//! // mqo-analyze: allow(hash-iteration): builds another map — order-insensitive
//! ```
//!
//! which silences the named lints on the same and the following line.
//! A reason-less or unknown-lint allow is itself reported
//! ([`LintKind::MalformedSuppression`]), so `--deny all` enforces the
//! acceptance bar "every suppression carries a written reason".

pub mod ctx;
pub mod lex;
pub mod lints;

use std::path::{Path, PathBuf};

use ctx::FileCtx;

mqo_util::named_enum! {
    /// The lint catalog, in catalog order ([`LintKind::ALL`]). Stable
    /// names (used by allow comments and `--deny`) come from
    /// [`LintKind::name`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum LintKind {
        /// `partial_cmp(..)` forced with `unwrap`/`expect`/`unwrap_or` —
        /// the NaN-corrupts-the-ordering pattern. Use `f64::total_cmp`.
        FloatOrdering => "float-ordering",
        /// Direct iteration over a `HashMap`/`HashSet` in a plan- or
        /// cost-producing crate; hash order is nondeterministic across
        /// processes and platforms. Route through
        /// `mqo_util::{sorted_keys, sorted_entries, sorted_items}`.
        HashIteration => "hash-iteration",
        /// `std::env::var` outside a designated `from_env`/`read_env`
        /// constructor — the `OnceLock` discipline from PR 5.
        EnvRead => "env-read",
        /// `unwrap`/`expect`/`panic!`-family/indexing on an execution or
        /// planning hot path without a documented `# Panics` contract.
        PanicPath => "panic-path",
        /// `&mut self` on a planning entry point (`search`, `search_*`,
        /// `removal_gains*`, `probe`, `probe_*`) in the planning crates
        /// (`mqo-core`, `mqo-ks15`) — the shared-session refactor needs
        /// planning to be re-entrant over `&self`.
        MutSelfEntry => "mut-self-entry",
        /// `RefCell`/`std::cell::Cell`/`UnsafeCell`/`static mut` in library
        /// code — state the shared-`MvStore` refactor needs `Sync`.
        InteriorMut => "interior-mut",
        /// An `mqo-analyze` allow comment that is missing its reason or
        /// names an unknown lint. Not suppressible.
        MalformedSuppression => "malformed-suppression",
    }
}

impl LintKind {
    /// One-line description for `--list`.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            LintKind::FloatOrdering => {
                "partial_cmp result forced into a total order (NaN corrupts sorts and heaps)"
            }
            LintKind::HashIteration => {
                "hash-order iteration feeding plan/cost state (nondeterministic across runs)"
            }
            LintKind::EnvRead => "env::var outside a cached from_env/read_env constructor",
            LintKind::PanicPath => {
                "undocumented panic path (unwrap/expect/panic!/indexing) on a hot path"
            }
            LintKind::MutSelfEntry => "&mut self on a planning entry point that must be re-entrant",
            LintKind::InteriorMut => {
                "interior mutability (RefCell/Cell/static mut) in code that must become Sync"
            }
            LintKind::MalformedSuppression => "allow comment without a reason or with unknown lint",
        }
    }

    /// Whether an allow comment may silence this lint.
    #[must_use]
    pub fn suppressible(self) -> bool {
        self != LintKind::MalformedSuppression
    }
}

impl std::fmt::Display for LintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a lint kind anchored at a source position, with the
/// offending line captured so rendering needs no file access.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub kind: LintKind,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Length in bytes of the underlined span.
    pub len: u32,
    /// What is wrong and what to do about it.
    pub message: String,
    /// The full text of the offending line.
    pub line_text: String,
    /// `Some(reason)` when an allow comment covers this finding.
    pub suppressed: Option<String>,
}

impl Finding {
    /// Renders a compiler-style caret diagnostic:
    ///
    /// ```text
    /// error[float-ordering]: partial_cmp(..).unwrap_or(..) forces …
    ///   --> crates/exec/src/column.rs:134:19
    ///    |                 x.partial_cmp(&y).unwrap_or(Ordering::Equal)
    ///    |                   ^^^^^^^^^^^
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        mqo_util::render_caret(
            &format!("error[{}]", self.kind),
            &self.message,
            &format!("{}:{}:{}", self.path, self.line, self.col),
            &self.line_text,
            self.col.saturating_sub(1) as usize,
            self.len as usize,
        )
    }
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every finding, suppressed ones included, in (path, line, col)
    /// order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Findings not covered by an allow comment.
    #[must_use]
    pub fn unsuppressed(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.suppressed.is_none())
            .collect()
    }

    /// Findings silenced by an allow comment, with their reasons.
    #[must_use]
    pub fn suppressed(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.suppressed.is_some())
            .collect()
    }

    /// Machine-readable report. Hand-rolled JSON (the crate is
    /// std only); strings are escaped per RFC 8259.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        let mut first = true;
        for f in self.findings.iter().filter(|f| f.suppressed.is_none()) {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"len\": {}, \"message\": \"{}\"}}",
                f.kind,
                json_escape(&f.path),
                f.line,
                f.col,
                f.len,
                json_escape(&f.message)
            ));
        }
        s.push_str("\n  ],\n  \"suppressed\": [");
        let mut first = true;
        for f in self.findings.iter().filter(|f| f.suppressed.is_some()) {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                f.kind,
                json_escape(&f.path),
                f.line,
                json_escape(f.suppressed.as_deref().unwrap_or_default())
            ));
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Escapes a string for inclusion in a JSON literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Analyzes one file's source text. `path` must be repo-relative with
/// `/` separators — it determines which lints apply (crate + section).
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    let ctx = FileCtx::build(path, src);
    let mut findings = lints::run_all(&ctx);
    // apply suppressions: an allow comment covers its own line and the
    // next one
    for f in &mut findings {
        if f.kind.suppressible() {
            if let Some(s) = ctx
                .suppressions
                .iter()
                .find(|s| s.lints.contains(&f.kind) && (f.line == s.line || f.line == s.line + 1))
            {
                f.suppressed = Some(s.reason.clone());
            }
        }
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

/// Collects every workspace `.rs` file under `root`, in sorted
/// (deterministic) order: `crates/*/{src,tests,benches}`, `shims/*/src`,
/// and the umbrella `src`, `tests`, `examples`.
#[must_use]
pub fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for sub in ["src", "tests", "examples", "benches"] {
        collect_rs(&root.join(sub), &mut out);
    }
    for family in ["crates", "shims"] {
        let Ok(entries) = std::fs::read_dir(root.join(family)) else {
            continue;
        };
        for e in entries.flatten() {
            for sub in ["src", "tests", "benches"] {
                collect_rs(&e.path().join(sub), &mut out);
            }
        }
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Analyzes the whole workspace rooted at `root`.
///
/// # Panics
///
/// Panics when a discovered file cannot be read (TOCTOU deletion).
#[must_use]
pub fn analyze_workspace(root: &Path) -> Analysis {
    let files = workspace_files(root);
    let mut analysis = Analysis {
        files_scanned: files.len(),
        ..Analysis::default()
    };
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file).expect("workspace file readable");
        analysis.findings.extend(analyze_source(&rel, &src));
    }
    analysis
}

/// Walks upward from `start` to the nearest directory whose
/// `Cargo.toml` declares `[workspace]`; falls back to `start`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_round_trip() {
        for &k in LintKind::ALL {
            assert_eq!(LintKind::from_name(k.name()), Some(k));
        }
        assert_eq!(LintKind::from_name("nope"), None);
    }

    #[test]
    fn render_places_carets_under_the_span() {
        let f = Finding {
            kind: LintKind::FloatOrdering,
            path: "crates/x/src/y.rs".into(),
            line: 3,
            col: 5,
            len: 11,
            message: "m".into(),
            line_text: "  a.partial_cmp(&b).unwrap()".into(),
            suppressed: None,
        };
        let r = f.render();
        assert!(r.contains("error[float-ordering]"), "{r}");
        assert!(r.contains("crates/x/src/y.rs:3:5"), "{r}");
        assert!(
            r.lines().last().unwrap().ends_with("    ^^^^^^^^^^^"),
            "{r}"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
fn f(a: f64, b: f64) {
    // mqo-analyze: allow(float-ordering): inputs proven non-NaN upstream
    let _ = a.partial_cmp(&b).unwrap();
    let _ = a.partial_cmp(&b).unwrap();
}
";
        let fs = analyze_source("crates/core/src/x.rs", src);
        let float: Vec<_> = fs
            .iter()
            .filter(|f| f.kind == LintKind::FloatOrdering)
            .collect();
        assert_eq!(float.len(), 2);
        assert!(float[0].suppressed.is_some(), "line 3 covered");
        assert!(float[1].suppressed.is_none(), "line 4 not covered");
    }
}
