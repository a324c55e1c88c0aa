//! The lint passes: token-stream walkers over a [`FileCtx`].
//!
//! Each pass is a heuristic tuned to the exact bug class it guards
//! (see the crate docs for the history). Scoping rules:
//!
//! | lint | crates | sections |
//! |---|---|---|
//! | `float-ordering` | all | all (tests sort too) |
//! | `hash-iteration` | plan/cost producers | lib, outside `#[cfg(test)]` |
//! | `env-read` | all | lib, outside `#[cfg(test)]` |
//! | `panic-path` | `exec`, `core`, `session`, `serve` | lib, outside `#[cfg(test)]` |
//! | `panic-path` (strict) | `try_*` fns and [`RESULT_FNS`] | same — `# Panics` docs do NOT exempt |
//! | `mut-self-entry` | `core`, `ks15` | lib, outside `#[cfg(test)]` |
//! | `interior-mut` | all (shims included) | lib, outside `#[cfg(test)]` |

use crate::ctx::{FileCtx, Section};
use crate::lex::{Tok, TokKind};
use crate::{Finding, LintKind};

/// Crates whose outputs (plans, costs, schedules, cached state) must be
/// bit-deterministic across runs — the determinism lint's domain.
pub const ORDERED_CRATES: [&str; 9] = [
    "core", "cost", "dag", "physical", "ks15", "session", "exec", "sql", "serve",
];

/// Crates whose `src/` is the execution/planning hot path — the panic
/// lint's domain.
pub const HOT_CRATES: [&str; 4] = ["exec", "core", "session", "serve"];

/// Crates whose `src/` holds the materialization-set search — the
/// `mut-self-entry` lint's domain.
pub const PLANNING_CRATES: [&str; 2] = ["core", "ks15"];

/// Functions the robustness PR converted to typed-`Result` pipelines.
/// Inside these (and any `try_*` function) the panic lint is strict: a
/// `# Panics` doc does **not** exempt `unwrap`/`expect`/`panic!` — the
/// whole point of the conversion is that these paths return
/// `MqoError`, and a documented panic is still a regression.
pub const RESULT_FNS: [&str; 14] = [
    "submit",
    "submit_sql",
    "plan_execute",
    "commit_staged",
    "submit_with_params",
    "submit_inner",
    "eval_def",
    "eval_def_inner",
    "eval_use",
    "temp_sorted_on",
    "indexed_nl",
    "checkpoint",
    "check_params_bound",
    "search_with",
];

/// Whether `name` is held to the strict no-panic (`Result`) contract.
#[must_use]
pub fn is_result_fn(name: &str) -> bool {
    name.starts_with("try_") || RESULT_FNS.contains(&name)
}

/// Methods that observe a hash container in iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "into_keys",
    "into_values",
];

/// The sanctioned deterministic adapters in `mqo_util::sorted`.
const SANCTIONED: [&str; 4] = [
    "sorted_keys",
    "sorted_entries",
    "sorted_items",
    "into_sorted_entries",
];

/// Methods that force an `Option<Ordering>` and corrupt orderings on
/// `None`.
const FORCERS: [&str; 5] = [
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
];

/// Runs every pass that applies to this file.
#[must_use]
pub fn run_all(ctx: &FileCtx<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    float_ordering(ctx, &mut out);
    if ctx.section == Section::Lib {
        if ORDERED_CRATES.contains(&ctx.crate_name.as_str()) {
            hash_iteration(ctx, &mut out);
        }
        env_read(ctx, &mut out);
        if HOT_CRATES.contains(&ctx.crate_name.as_str()) {
            panic_path(ctx, &mut out);
        }
        if PLANNING_CRATES.contains(&ctx.crate_name.as_str()) {
            mut_self_entry(ctx, &mut out);
        }
        interior_mut(ctx, &mut out);
    }
    malformed_suppressions(ctx, &mut out);
    out
}

/// Builds a finding anchored at token `t`.
fn finding(ctx: &FileCtx<'_>, kind: LintKind, t: &Tok, message: String) -> Finding {
    let line = ctx.lexed.line_of(t.lo);
    Finding {
        kind,
        path: ctx.path.to_string(),
        line,
        col: ctx.lexed.col_of(t.lo),
        len: t.hi - t.lo,
        message,
        line_text: ctx.lexed.line_text(ctx.src, line).to_string(),
        suppressed: None,
    }
}

// ------------------------------------------------------------------
// float-ordering
// ------------------------------------------------------------------

/// Flags `partial_cmp(..)` whose `Option` is immediately forced
/// (`unwrap` / `expect` / `unwrap_or*`). On floats this is exactly the
/// NaN bug from PR 3's greedy heap: `None` collapses to an arbitrary
/// `Ordering` and the sort/heap invariant silently breaks.
fn float_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    let toks = ctx.toks();
    for i in 0..toks.len() {
        if !toks[i].is_ident(src, "partial_cmp") {
            continue;
        }
        let Some(open) = toks.get(i + 1).filter(|t| t.is_punct(src, b'(')) else {
            continue;
        };
        let _ = open;
        let close = ctx.matching[i + 1];
        if close == u32::MAX {
            continue;
        }
        let j = close as usize;
        let forced = toks.get(j + 1).is_some_and(|t| t.is_punct(src, b'.'))
            && toks
                .get(j + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && FORCERS.contains(&t.text(src)));
        if forced {
            let m = toks[j + 2].text(src);
            out.push(finding(
                ctx,
                LintKind::FloatOrdering,
                &toks[i],
                format!(
                    "`partial_cmp(..).{m}(..)` forces a partial order total; on floats a NaN \
                     makes the comparator lie and corrupts sorts/heaps — use `f64::total_cmp`"
                ),
            ));
        }
    }
}

// ------------------------------------------------------------------
// hash-iteration
// ------------------------------------------------------------------

/// Intra-file inventory of identifiers bound to hash containers, built
/// from type ascriptions (`x: FxHashMap<..>`, fields, params), local
/// inits (`let m = FxHashMap::default()`), and file-local type aliases
/// (`type Sites = FxHashMap<..>`).
fn hash_idents(ctx: &FileCtx<'_>) -> Vec<String> {
    let src = ctx.src;
    let toks = ctx.toks();
    let mut hash_types: Vec<String> = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"]
        .iter()
        .map(ToString::to_string)
        .collect();
    // pass 0: type aliases
    for i in 0..toks.len() {
        if toks[i].is_ident(src, "type")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let mut j = i + 2;
            let mut is_hash = false;
            while j < toks.len() && !toks[j].is_punct(src, b';') {
                if toks[j].kind == TokKind::Ident
                    && hash_types.iter().any(|h| toks[j].is_ident(src, h))
                {
                    is_hash = true;
                }
                j += 1;
            }
            if is_hash {
                hash_types.push(toks[i + 1].text(src).to_string());
            }
        }
    }
    let is_hash_ty =
        |t: &Tok| t.kind == TokKind::Ident && hash_types.iter().any(|h| t.text(src) == h);
    let mut idents: Vec<String> = Vec::new();
    let mut add = |name: &str| {
        if !idents.iter().any(|n| n == name) {
            idents.push(name.to_string());
        }
    };
    for i in 0..toks.len() {
        // `name: [&][mut] [path::]HashTy` — fields, params, let-with-type
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(src, b':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(src, b':'))
            && (i == 0 || !toks[i - 1].is_punct(src, b':'))
        {
            let mut j = i + 2;
            let limit = (i + 12).min(toks.len());
            while j < limit {
                let t = &toks[j];
                let part_of_ty = t.kind == TokKind::Ident
                    || t.kind == TokKind::Lifetime
                    || t.is_punct(src, b':')
                    || t.is_punct(src, b'&');
                if !part_of_ty {
                    break;
                }
                if is_hash_ty(t) {
                    add(toks[i].text(src));
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = … HashTy::… ;`
        if toks[i].is_ident(src, "let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident(src, "mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            let name = name.text(src);
            // find `=` before `;`
            let mut k = j + 1;
            let limit = (k + 200).min(toks.len());
            let mut saw_eq = false;
            while k < limit && !toks[k].is_punct(src, b';') {
                if toks[k].is_punct(src, b'=') {
                    saw_eq = true;
                } else if saw_eq && is_hash_ty(&toks[k]) {
                    add(name);
                    break;
                }
                k += 1;
            }
        }
    }
    idents
}

/// Flags direct iteration (`.iter()`, `.keys()`, `for _ in &map`, …)
/// over identifiers the inventory knows to be hash containers, inside a
/// crate whose outputs must be deterministic. PR 3's `MatSet` bug is
/// the template: summing `f64`s in hash order differed by 1 ULP
/// between probe histories. The sanctioned route is
/// `mqo_util::{sorted_keys, sorted_entries, sorted_items}`.
fn hash_iteration(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    let toks = ctx.toks();
    let inventory = hash_idents(ctx);
    if inventory.is_empty() {
        return;
    }
    let known = |t: &Tok| t.kind == TokKind::Ident && inventory.iter().any(|n| t.text(src) == n);
    let mut flagged_lines: Vec<u32> = Vec::new();
    for i in 0..toks.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        // `map.iter()` / `self.map.keys()` …
        if known(&toks[i])
            && toks.get(i + 1).is_some_and(|t| t.is_punct(src, b'.'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(src, b'('))
        {
            if let Some(m) = toks.get(i + 2) {
                if m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text(src)) {
                    let line = ctx.lexed.line_of(m.lo);
                    if !flagged_lines.contains(&line) {
                        flagged_lines.push(line);
                        out.push(finding(
                            ctx,
                            LintKind::HashIteration,
                            m,
                            format!(
                                "iteration order of hash container `{}` is nondeterministic; \
                                 this crate produces plans/costs that must be bit-stable — use \
                                 `mqo_util::sorted_keys`/`sorted_entries`, or justify \
                                 order-insensitivity with an allow comment",
                                toks[i].text(src)
                            ),
                        ));
                    }
                }
            }
        }
        // `for pat in [&mut] map {` / `for pat in &self.map {`
        if toks[i].is_ident(src, "for") {
            // find `in` at bracket depth 0
            let mut j = i + 1;
            let mut depth = 0i32;
            let in_at = loop {
                match toks.get(j) {
                    None => break None,
                    Some(t) if t.is_punct(src, b'(') || t.is_punct(src, b'[') => depth += 1,
                    Some(t) if t.is_punct(src, b')') || t.is_punct(src, b']') => depth -= 1,
                    Some(t) if depth == 0 && t.is_ident(src, "in") => break Some(j),
                    Some(t) if t.is_punct(src, b'{') || t.is_punct(src, b';') => break None,
                    Some(_) => {}
                }
                j += 1;
            };
            let Some(in_at) = in_at else { continue };
            // expression runs to the loop body `{` at depth 0
            let mut k = in_at + 1;
            let mut depth = 0i32;
            let body_at = loop {
                match toks.get(k) {
                    None => break None,
                    Some(t) if t.is_punct(src, b'(') || t.is_punct(src, b'[') => depth += 1,
                    Some(t) if t.is_punct(src, b')') || t.is_punct(src, b']') => depth -= 1,
                    Some(t) if depth == 0 && t.is_punct(src, b'{') => break Some(k),
                    Some(_) => {}
                }
                k += 1;
            };
            let Some(body_at) = body_at else { continue };
            let expr = &toks[in_at + 1..body_at];
            if expr
                .iter()
                .any(|t| t.kind == TokKind::Ident && SANCTIONED.contains(&t.text(src)))
            {
                continue;
            }
            // flag only when the expression *ends* on a known hash
            // ident (`&map`, `map`, `&mut self.map`) — method-call
            // forms were already handled above
            if let Some(last) = expr.last() {
                if known(last) {
                    let line = ctx.lexed.line_of(last.lo);
                    if !flagged_lines.contains(&line) {
                        flagged_lines.push(line);
                        out.push(finding(
                            ctx,
                            LintKind::HashIteration,
                            last,
                            format!(
                                "`for` over hash container `{}` visits entries in \
                                 nondeterministic order — use `mqo_util::sorted_entries` (or an \
                                 allow comment arguing order-insensitivity)",
                                last.text(src)
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// env-read
// ------------------------------------------------------------------

/// Flags `env::var`/`var_os`/`vars` outside functions named `read_env`
/// or `*from_env` — PR 5's discipline: parse the environment once
/// behind a `OnceLock`, give tests a named raw accessor.
fn env_read(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    let toks = ctx.toks();
    for i in 0..toks.len().saturating_sub(3) {
        if !(toks[i].is_ident(src, "env")
            && toks[i + 1].is_punct(src, b':')
            && toks[i + 2].is_punct(src, b':'))
        {
            continue;
        }
        let t = &toks[i + 3];
        if !(t.kind == TokKind::Ident
            && matches!(t.text(src), "var" | "var_os" | "vars" | "vars_os"))
        {
            continue;
        }
        if ctx.in_test_code(i) {
            continue;
        }
        let exempt = ctx.enclosing_fn(i).is_some_and(|f| {
            f.name == "read_env" || f.name == "from_env" || f.name.ends_with("_from_env")
        });
        if !exempt {
            out.push(finding(
                ctx,
                LintKind::EnvRead,
                t,
                "environment read outside a `from_env`/`read_env` constructor; hot paths must \
                 not re-parse the environment per call — cache behind a `OnceLock` accessor \
                 (see `ExecOptions::from_env`)"
                    .to_string(),
            ));
        }
    }
}

// ------------------------------------------------------------------
// panic-path
// ------------------------------------------------------------------

/// Flags undocumented panic paths in the hot crates: `.unwrap()`,
/// `.expect(..)`, the `panic!` macro family everywhere, and slice
/// indexing in `pub fn`s. A `# Panics` section on the enclosing
/// function's docs is the accepted contract (private helpers inherit
/// their public callers' contracts for indexing, matching
/// `clippy::missing_panics_doc`'s public-surface scope).
fn panic_path(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    let toks = ctx.toks();
    for i in 0..toks.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        let documented = |idx: usize| ctx.enclosing_fn(idx).is_some_and(|f| f.has_panics_doc);
        let strict = |idx: usize| {
            ctx.enclosing_fn(idx)
                .filter(|f| is_result_fn(&f.name))
                .map(|f| f.name.clone())
        };
        // `.unwrap()` / `.expect(`
        if toks[i].is_punct(src, b'.') {
            if let Some(m) = toks.get(i + 1) {
                if m.kind == TokKind::Ident
                    && matches!(m.text(src), "unwrap" | "expect")
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(src, b'('))
                {
                    if let Some(fname) = strict(i) {
                        out.push(finding(
                            ctx,
                            LintKind::PanicPath,
                            m,
                            format!(
                                "`.{}(..)` inside `{fname}`, a typed-error `Result` path — this \
                                 regressed from the robustness conversion; return an `MqoError` \
                                 (`?`) instead (a `# Panics` doc does not exempt these fns)",
                                m.text(src)
                            ),
                        ));
                    } else if !documented(i) {
                        out.push(finding(
                            ctx,
                            LintKind::PanicPath,
                            m,
                            format!(
                                "`.{}(..)` on a hot path without a documented contract — add a \
                                 `# Panics` section to the enclosing fn's docs or an allow comment \
                                 explaining why it cannot fire",
                                m.text(src)
                            ),
                        ));
                    }
                }
            }
        }
        // `panic!` family
        if toks[i].kind == TokKind::Ident
            && matches!(
                toks[i].text(src),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && toks.get(i + 1).is_some_and(|t| t.is_punct(src, b'!'))
        {
            if let Some(fname) = strict(i) {
                out.push(finding(
                    ctx,
                    LintKind::PanicPath,
                    &toks[i],
                    format!(
                        "`{}!` inside `{fname}`, a typed-error `Result` path — this regressed \
                         from the robustness conversion; return an `MqoError` instead (a \
                         `# Panics` doc does not exempt these fns)",
                        toks[i].text(src)
                    ),
                ));
            } else if !documented(i) {
                out.push(finding(
                    ctx,
                    LintKind::PanicPath,
                    &toks[i],
                    format!(
                        "`{}!` on a hot path without a documented contract — add `# Panics` to the \
                         enclosing fn's docs or an allow comment",
                        toks[i].text(src)
                    ),
                ));
            }
        }
        // indexing in pub fns: `expr[` where expr ends in ident/`)`/`]`.
        // A keyword before `[` starts a slice *pattern* (`let [a] = ..`,
        // `if let [x] = ..`) or a fresh expression, never an index.
        if toks[i].is_punct(src, b'[') && i > 0 {
            let prev = &toks[i - 1];
            let keyword = prev.kind == TokKind::Ident
                && matches!(
                    prev.text(src),
                    "let"
                        | "mut"
                        | "ref"
                        | "in"
                        | "else"
                        | "return"
                        | "break"
                        | "continue"
                        | "match"
                        | "move"
                        | "if"
                        | "while"
                        | "for"
                        | "loop"
                        | "unsafe"
                );
            let indexish = !keyword
                && (prev.kind == TokKind::Ident
                    || prev.is_punct(src, b')')
                    || prev.is_punct(src, b']'));
            if indexish {
                if let Some(f) = ctx.enclosing_fn(i) {
                    if f.is_pub && !f.has_panics_doc {
                        out.push(finding(
                            ctx,
                            LintKind::PanicPath,
                            &toks[i],
                            format!(
                                "indexing in public fn `{}` without a `# Panics` doc — \
                                 out-of-bounds panics are part of the public contract; document \
                                 or justify",
                                f.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------------
// mut-self-entry
// ------------------------------------------------------------------

/// Flags `&mut self` receivers on planning entry points (`search`,
/// `search_*`, `removal_gains*`, `probe`, `probe_*`) in the planning
/// crates. The multi-tenant serving front (ROADMAP) plans concurrently
/// over a shared session; everything `Strategy::search` reaches must
/// stay re-entrant over `&self`. The executor's hash-join `probe` is
/// not planning, hence the crate scope.
fn mut_self_entry(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for f in &ctx.fns {
        let entry = |prefix: &str| {
            f.name == prefix
                || f.name
                    .strip_prefix(prefix)
                    .is_some_and(|rest| rest.starts_with('_'))
        };
        let planning_entry =
            entry("search") || f.name.starts_with("removal_gains") || entry("probe");
        if planning_entry && f.mut_self {
            let t = ctx.toks()[f.name_tok as usize];
            if !ctx.in_test_code(f.name_tok as usize) {
                out.push(finding(
                    ctx,
                    LintKind::MutSelfEntry,
                    &t,
                    format!(
                        "planning entry point `{}` takes `&mut self`; concurrent serving needs \
                         pure `&self` planning (ROADMAP: shared-MvStore front) — move mutation \
                         behind the commit boundary",
                        f.name
                    ),
                ));
            }
        }
    }
}

// ------------------------------------------------------------------
// interior-mut
// ------------------------------------------------------------------

/// Flags `RefCell`, `UnsafeCell`, path-qualified `cell::Cell`, and
/// `static mut` in library code. These are the types that keep planner
/// and cache state `!Sync`; the shared-`MvStore` refactor cannot absorb
/// them. (The bare name `Cell` is deliberately not matched: `mqo-exec`
/// defines its own borrowed-`Cell` enum, which is a plain value type.)
fn interior_mut(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    let toks = ctx.toks();
    for i in 0..toks.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        let t = &toks[i];
        let hit = if t.is_ident(src, "RefCell") || t.is_ident(src, "UnsafeCell") {
            Some(t.text(src))
        } else if t.is_ident(src, "Cell")
            && i >= 3
            && toks[i - 1].is_punct(src, b':')
            && toks[i - 2].is_punct(src, b':')
            && toks[i - 3].is_ident(src, "cell")
        {
            Some("std::cell::Cell")
        } else if t.is_ident(src, "static")
            && toks.get(i + 1).is_some_and(|n| n.is_ident(src, "mut"))
        {
            Some("static mut")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(finding(
                ctx,
                LintKind::InteriorMut,
                t,
                format!(
                    "`{what}` makes this type `!Sync`; the shared-MvStore serving front needs \
                     planner/cache state shareable across threads — use atomics, locks, or \
                     redesign for `&self`"
                ),
            ));
        }
    }
}

// ------------------------------------------------------------------
// malformed-suppression
// ------------------------------------------------------------------

/// Surfaces every `mqo-analyze` comment that failed to parse — the
/// acceptance bar requires each suppression to carry a reason, so a
/// reason-less allow is a finding, not a silencer.
fn malformed_suppressions(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (c, why) in &ctx.malformed {
        let line = ctx.lexed.line_of(c.lo);
        out.push(Finding {
            kind: LintKind::MalformedSuppression,
            path: ctx.path.to_string(),
            line,
            col: ctx.lexed.col_of(c.lo),
            len: c.hi - c.lo,
            message: format!("malformed suppression: {why}"),
            line_text: ctx.lexed.line_text(ctx.src, line).to_string(),
            suppressed: None,
        });
    }
}
