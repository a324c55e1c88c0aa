//! Every lint family is proven live: each test feeds a deliberately
//! offending fixture (with a pretend workspace path, so crate/section
//! scoping applies) through [`analyze_source`] and asserts the exact
//! kind, span, and — for the catalog's flagship — the caret rendering.
//! A lint nobody can trip is dead weight; this file is the existence
//! proof, mirroring `crates/verify/tests/negative.rs`.
//!
//! The fixtures live in string literals; the lexer hides string
//! contents, so scanning this test file itself stays clean.

use mqo_analyze::{analyze_source, Finding, LintKind};

/// Runs the analyzer and returns all findings (suppressed included).
fn run(path: &str, src: &str) -> Vec<Finding> {
    analyze_source(path, src)
}

/// Asserts exactly one unsuppressed finding of `kind` and returns it.
fn one(path: &str, src: &str, kind: LintKind) -> Finding {
    let found = run(path, src);
    let hits: Vec<&Finding> = found
        .iter()
        .filter(|f| f.kind == kind && f.suppressed.is_none())
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {kind} in {path}, got: {found:#?}"
    );
    hits[0].clone()
}

/// Asserts the fixture produces no unsuppressed findings at all.
fn clean(path: &str, src: &str) {
    let found = run(path, src);
    let live: Vec<&Finding> = found.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(live.is_empty(), "expected clean {path}, got: {live:#?}");
}

// ---------------------------------------------------------------- float-ordering

#[test]
fn float_ordering_fires_on_forced_partial_cmp() {
    let src = "pub fn f(a: f64, b: f64) -> std::cmp::Ordering {\n    \
               a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}\n";
    let f = one("crates/exec/src/fake.rs", src, LintKind::FloatOrdering);
    assert_eq!((f.line, f.col), (2, 7), "anchor at `partial_cmp`: {f:#?}");
    assert_eq!(f.len, "partial_cmp".len() as u32);
}

#[test]
fn float_ordering_fires_even_in_test_code() {
    // sorts in tests corrupt silently too — the lint scans all sections
    let src = "#[test]\nfn t() {\n    let mut v = vec![1.0f64];\n    \
               v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let f = one(
        "crates/physical/tests/fake.rs",
        src,
        LintKind::FloatOrdering,
    );
    assert_eq!(f.line, 4);
}

#[test]
fn float_ordering_caret_rendering_is_exact() {
    let src = "pub fn f(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).unwrap() == std::cmp::Ordering::Less\n}\n";
    let f = one("crates/cost/src/fake.rs", src, LintKind::FloatOrdering);
    let rendered = f.render();
    let mut lines = rendered.lines();
    assert!(lines
        .next()
        .unwrap()
        .starts_with("error[float-ordering]: `partial_cmp(..).unwrap(..)`"));
    assert_eq!(lines.next().unwrap(), "  --> crates/cost/src/fake.rs:2:7");
    assert_eq!(
        lines.next().unwrap(),
        "   |     a.partial_cmp(&b).unwrap() == std::cmp::Ordering::Less"
    );
    assert_eq!(lines.next().unwrap(), "   |       ^^^^^^^^^^^");
    assert_eq!(lines.next(), None);
}

#[test]
fn plain_partial_cmp_is_fine() {
    // handling the Option honestly is the sanctioned form
    let src =
        "pub fn f(a: f64, b: f64) -> Option<std::cmp::Ordering> {\n    a.partial_cmp(&b)\n}\n";
    clean("crates/exec/src/fake.rs", src);
}

// ---------------------------------------------------------------- hash-iteration

#[test]
fn hash_iteration_fires_on_method_iteration_in_ordered_crate() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u32, u32>) -> u32 {\n    \
               let mut s = 0;\n    \
               for (_k, v) in m.iter() {\n        s += v;\n    }\n    s\n}\n";
    let f = one("crates/core/src/fake.rs", src, LintKind::HashIteration);
    assert_eq!(f.line, 4, "anchor on the iterating line: {f:#?}");
}

#[test]
fn hash_iteration_fires_on_for_over_borrowed_map() {
    let src = "use mqo_util::FxHashMap;\n\
               pub struct S {\n    pub costs: FxHashMap<u32, f64>,\n}\n\
               impl S {\n    pub fn total(&self) -> f64 {\n        \
               let mut t = 0.0;\n        \
               for v in &self.costs {\n            t += v.1;\n        }\n        t\n    }\n}\n";
    let f = one("crates/cost/src/fake.rs", src, LintKind::HashIteration);
    assert_eq!(f.line, 8);
}

#[test]
fn hash_iteration_respects_sorted_adapters_and_scope() {
    // the sanctioned adapter is clean...
    let sanctioned = "use mqo_util::FxHashMap;\n\
                      pub fn f(m: &FxHashMap<u32, u32>) -> u32 {\n    \
                      let mut s = 0;\n    \
                      for (_k, v) in mqo_util::sorted_entries(m) {\n        s += v;\n    }\n    s\n}\n";
    clean("crates/core/src/fake.rs", sanctioned);
    // ...and an unordered crate (no plan/cost output) is out of scope
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u32, u32>) -> u32 {\n    m.keys().count() as u32\n}\n";
    clean("crates/workloads/src/fake.rs", src);
}

// ---------------------------------------------------------------- env-read

#[test]
fn env_read_fires_outside_from_env() {
    let src = "pub fn threads() -> Option<String> {\n    std::env::var(\"MQO_THREADS\").ok()\n}\n";
    let f = one("crates/util/src/fake.rs", src, LintKind::EnvRead);
    assert_eq!(f.line, 2);
}

#[test]
fn env_read_sanctioned_in_from_env_constructors() {
    for name in ["from_env", "read_env", "threads_from_env"] {
        let src = format!(
            "pub fn {name}() -> Option<String> {{\n    std::env::var(\"MQO_X\").ok()\n}}\n"
        );
        clean("crates/util/src/fake.rs", &src);
    }
}

// ---------------------------------------------------------------- panic-path

#[test]
fn panic_path_fires_on_undocumented_unwrap_in_hot_crate() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    v.first().unwrap() + 1\n}\n";
    let f = one("crates/exec/src/fake.rs", src, LintKind::PanicPath);
    assert_eq!(f.line, 2, "{f:#?}");
    assert_eq!(f.len, "unwrap".len() as u32);
}

#[test]
fn panic_path_fires_on_indexing_in_pub_fn() {
    let src = "pub fn f(v: &[u32], i: usize) -> u32 {\n    v[i]\n}\n";
    let f = one("crates/core/src/fake.rs", src, LintKind::PanicPath);
    assert_eq!(f.line, 2);
    assert!(f.message.contains("public fn `f`"), "{}", f.message);
}

#[test]
fn panic_path_fires_on_indexing_in_trait_impl_method() {
    // a trait method is as public as its trait, though it spells no `pub`
    let src = "impl Strategy for Greedy {\n    fn search(&self, v: &[u32]) -> u32 {\n        \
               v[0]\n    }\n}\n";
    let f = one("crates/core/src/fake.rs", src, LintKind::PanicPath);
    assert_eq!(f.line, 3, "{f:#?}");
    assert!(f.message.contains("public fn `search`"), "{}", f.message);
    // an inherent method without `pub` stays a private helper
    clean(
        "crates/core/src/fake.rs",
        "impl Greedy {\n    fn search(&self, v: &[u32]) -> u32 {\n        v[0]\n    }\n}\n",
    );
}

#[test]
fn panic_path_cleared_by_panics_doc() {
    let src = "/// Reads an element.\n///\n/// # Panics\n///\n/// Panics when `i >= v.len()`.\n\
               pub fn f(v: &[u32], i: usize) -> u32 {\n    v[i]\n}\n";
    clean("crates/exec/src/fake.rs", src);
}

#[test]
fn panic_path_scoping_private_indexing_and_cold_crates() {
    // indexing in a private helper inherits the public contract
    let private = "fn f(v: &[u32], i: usize) -> u32 {\n    v[i]\n}\n";
    clean("crates/exec/src/fake.rs", private);
    // outside the hot crates the whole lint is out of scope
    let src = "pub fn f(v: &[u32], i: usize) -> u32 {\n    v[i]\n}\n";
    clean("crates/workloads/src/fake.rs", src);
}

#[test]
fn panic_path_ignores_slice_patterns() {
    // regression: `let [a] = ..` is a pattern, not an indexing expression
    let src = "pub fn f(v: &[u32]) -> u32 {\n    let [a] = v else { return 0 };\n    *a\n}\n";
    clean("crates/exec/src/fake.rs", src);
}

#[test]
fn panic_path_strict_in_try_fn_despite_panics_doc() {
    // `try_*` fns are converted `Result` paths: a `# Panics` doc does not
    // exempt them — that would regress the robustness contract.
    let src = "/// Builds a thing.\n///\n/// # Panics\n///\n/// Panics on empty input.\n\
               pub fn try_build(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    let f = one("crates/exec/src/fake.rs", src, LintKind::PanicPath);
    assert_eq!(f.line, 7, "{f:#?}");
    assert!(f.message.contains("try_build"), "{}", f.message);
    assert!(f.message.contains("regress"), "{}", f.message);
}

#[test]
fn panic_path_strict_in_named_result_fn() {
    // `submit_inner` is on the RESULT_FNS list; `panic!` fires even when
    // documented, and in a cold crate the lint stays out of scope.
    let src = "/// # Panics\n///\n/// Always.\nfn submit_inner() {\n    panic!(\"boom\");\n}\n";
    let f = one("crates/session/src/fake.rs", src, LintKind::PanicPath);
    assert_eq!(f.line, 5, "{f:#?}");
    assert!(f.message.contains("submit_inner"), "{}", f.message);
    clean("crates/workloads/src/fake.rs", src);
}

#[test]
fn panic_path_strict_still_suppressible_with_reason() {
    let src = "pub fn try_build(v: &[u32]) -> u32 {\n    \
               // mqo-analyze: allow(panic-path): seeded fixture, cannot be empty\n    \
               *v.first().unwrap()\n}\n";
    clean("crates/exec/src/fake.rs", src);
}

// ---------------------------------------------------------------- mut-self-entry

#[test]
fn mut_self_entry_fires_on_mut_search() {
    let src = "pub struct S;\nimpl S {\n    pub fn search(&mut self, x: u32) -> u32 {\n        x\n    }\n}\n";
    let f = one("crates/core/src/fake.rs", src, LintKind::MutSelfEntry);
    assert_eq!(f.line, 3, "{f:#?}");
    assert_eq!(f.len, "search".len() as u32);
}

#[test]
fn mut_self_entry_fires_on_mut_probe_in_planning_crate() {
    let src = "pub struct S;\nimpl S {\n    pub fn probe(&mut self, x: u32) -> u32 {\n        x\n    }\n}\n";
    let f = one("crates/core/src/fake.rs", src, LintKind::MutSelfEntry);
    assert_eq!(f.line, 3, "{f:#?}");
    assert_eq!(f.len, "probe".len() as u32);
}

#[test]
fn mut_self_entry_ignores_executor_probe() {
    // the executor's hash-join probe is not a planning entry point
    let src = "pub struct S;\nimpl S {\n    pub fn probe(&mut self, x: u32) -> u32 {\n        x\n    }\n}\n";
    clean("crates/exec/src/fake.rs", src);
}

#[test]
fn mut_self_entry_allows_shared_receiver() {
    let src =
        "pub struct S;\nimpl S {\n    pub fn search(&self, x: u32) -> u32 {\n        x\n    }\n}\n";
    clean("crates/core/src/fake.rs", src);
}

// ---------------------------------------------------------------- interior-mut

#[test]
fn interior_mut_fires_on_refcell() {
    let src = "pub struct S {\n    pub cache: std::cell::RefCell<u32>,\n}\n";
    let f = one("crates/core/src/fake.rs", src, LintKind::InteriorMut);
    assert_eq!(f.line, 2, "{f:#?}");
}

#[test]
fn interior_mut_fires_on_static_mut() {
    let src = "static mut COUNTER: u32 = 0;\n";
    let f = one("crates/session/src/fake.rs", src, LintKind::InteriorMut);
    assert_eq!(f.line, 1);
}

#[test]
fn interior_mut_ignores_execs_own_cell_enum() {
    // `Cell` bare (mqo-exec's row-cell enum) is not interior mutability
    let src = "pub fn f(c: Cell<'_>) -> Cell<'_> {\n    c\n}\n";
    clean("crates/exec/src/fake.rs", src);
}

// ---------------------------------------------------------------- suppressions

#[test]
fn allow_comment_suppresses_with_reason() {
    let src = "pub fn f(a: f64, b: f64) -> std::cmp::Ordering {\n    \
               // mqo-analyze: allow(float-ordering): inputs are clamped finite upstream\n    \
               a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}\n";
    let found = run("crates/exec/src/fake.rs", src);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(
        found[0].suppressed.as_deref(),
        Some("inputs are clamped finite upstream")
    );
}

#[test]
fn directive_quoted_in_a_doc_comment_is_prose() {
    let src = "/// // mqo-analyze: allow(float-ordering): an example in the docs\n\
               pub fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).unwrap().is_lt() }\n";
    let f = one("crates/exec/src/fake.rs", src, LintKind::FloatOrdering);
    assert!(f.suppressed.is_none());
}

#[test]
fn allow_comment_only_covers_adjacent_lines() {
    let src = "pub fn f(a: f64, b: f64) -> std::cmp::Ordering {\n    \
               // mqo-analyze: allow(float-ordering): too far away\n    \
               let _unused = 0;\n    \
               a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)\n}\n";
    let f = one("crates/exec/src/fake.rs", src, LintKind::FloatOrdering);
    assert!(f.suppressed.is_none());
}

#[test]
fn malformed_suppression_unknown_lint() {
    let src = "// mqo-analyze: allow(no-such-lint): reason here\npub fn f() {}\n";
    let f = one(
        "crates/core/src/fake.rs",
        src,
        LintKind::MalformedSuppression,
    );
    assert_eq!(f.line, 1);
}

#[test]
fn malformed_suppression_missing_reason_is_not_itself_suppressible() {
    let src = "// mqo-analyze: allow(env-read)\npub fn f() -> Option<String> {\n    std::env::var(\"X\").ok()\n}\n";
    let found = run("crates/util/src/fake.rs", src);
    // the reason-less directive is malformed AND does not suppress
    assert!(
        found
            .iter()
            .any(|f| f.kind == LintKind::MalformedSuppression && f.suppressed.is_none()),
        "{found:#?}"
    );
    assert!(
        found
            .iter()
            .any(|f| f.kind == LintKind::EnvRead && f.suppressed.is_none()),
        "{found:#?}"
    );
}
