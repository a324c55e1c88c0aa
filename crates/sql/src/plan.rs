//! Lowering: analyzed ASTs → [`LogicalPlan`] trees.
//!
//! The planner reproduces the shape conventions of the hand-built
//! `mqo-workloads` plans, so SQL text and Rust constructors of the same
//! query yield *equal* `LogicalPlan` values (the golden tests assert
//! this; it is also what lets SQL-submitted batches share DAG
//! subexpressions with hand-built ones):
//!
//! - single-source filter conjuncts are pushed below the joins onto
//!   their source (`scan → select`), before projection;
//! - each base scan is projected to the columns the rest of the query
//!   needs, in table declaration order, with columns used *only* by
//!   pushed-down filters projected away — the workloads' `keep` idiom;
//! - joins fold left-deep in FROM order, each carrying the conjuncts
//!   whose last referenced source it introduces;
//! - a trailing projection appears only when the select-list order
//!   differs from the operator's natural output order.
//!
//! `ORDER BY` is not part of the engine's plan algebra (plans produce
//! unordered or clustered results); the planner returns it as
//! [`SortKey`]s for the caller to apply to the result rows.

use crate::analyze::{ExprTy, LoweredPred, Scope, Source, SourceKind};
use crate::ast::*;
use crate::error::{Span, SqlError, SqlErrorKind};
use crate::parse::parse_statements;
use mqo_catalog::{Catalog, ColId, ColStats, ColType, TableId};
use mqo_expr::{AggExpr, AggFunc, Predicate, ScalarExpr};
use mqo_logical::{validate, LogicalPlan};
use mqo_util::{FxHashMap, FxHashSet};

/// One ORDER BY key, resolved against the query's output columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// The output column to sort on.
    pub col: ColId,
    /// Descending if true.
    pub desc: bool,
}

/// A fully lowered statement: the plan plus the post-execution sort.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// Query label (assigned by the caller or `q1..qN` from text).
    pub label: String,
    /// The logical plan.
    pub plan: LogicalPlan,
    /// ORDER BY keys to apply to the result rows (empty = as produced).
    pub order_by: Vec<SortKey>,
}

/// Statement → plan lowering, with cross-statement state.
///
/// The planner owns the memo that maps unaliased aggregate expressions
/// to their derived output columns, so the same `SUM(expr)` in two
/// statements of a batch lands on the same [`ColId`] — which is what
/// lets the optimizer recognize the aggregates as a shared
/// subexpression.
#[derive(Debug, Default, Clone)]
pub struct SqlPlanner {
    agg_memo: FxHashMap<(AggFunc, ScalarExpr), ColId>,
    fresh: usize,
}

/// Needed-column unions across a batch, keyed per base-scan unit: the
/// table plus its pushed-down filter (by debug signature, which is
/// canonical because predicates normalize their atom order).
///
/// The hand-built workloads construct one `scan → select → project`
/// subtree per shared invariant and reuse it across the batch's
/// queries, so the projection carries the union of every consumer's
/// columns. Planning each SQL statement in isolation would project each
/// scan to just that statement's needs and the shared subtrees would no
/// longer be equal — the optimizer would find nothing to share. The
/// batch-level collect pass reproduces the union.
#[derive(Debug, Default)]
struct SharedNeeds {
    by_unit: FxHashMap<(TableId, String), FxHashSet<ColId>>,
    collecting: bool,
}

impl SharedNeeds {
    fn key(tid: TableId, filter: &Option<Predicate>) -> (TableId, String) {
        (tid, format!("{filter:?}"))
    }
}

impl SqlPlanner {
    /// Creates a planner with an empty aggregate memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses and plans a `;`-separated statement list, labelling the
    /// queries `q1..qN`. Aggregate outputs may register derived columns
    /// in `catalog` (append-only).
    pub fn plan_text(
        &mut self,
        catalog: &mut Catalog,
        sql: &str,
    ) -> Result<Vec<PlannedQuery>, SqlError> {
        let stmts = parse_statements(sql)?;
        self.plan_statements(catalog, &stmts)
    }

    /// Plans a batch of already-parsed statements, labelled `q1..qN`.
    ///
    /// Statements are planned as one batch in two passes: a collect
    /// pass (over scratch copies of planner and catalog) records which
    /// columns each base-scan unit feeds anywhere in the batch, then
    /// the apply pass projects every scan to the union — so identical
    /// scan units across queries come out as equal subtrees the
    /// optimizer can share, matching the hand-built workloads.
    pub fn plan_statements(
        &mut self,
        catalog: &mut Catalog,
        stmts: &[Statement],
    ) -> Result<Vec<PlannedQuery>, SqlError> {
        let mut shared = SharedNeeds {
            collecting: true,
            ..SharedNeeds::default()
        };
        {
            let mut scratch_cat = catalog.clone();
            let mut scratch = self.clone();
            for stmt in stmts {
                let Statement::Select(sel) = stmt;
                scratch.lower_select(&mut scratch_cat, sel, false, &mut shared)?;
            }
        }
        shared.collecting = false;
        stmts
            .iter()
            .enumerate()
            .map(|(i, stmt)| {
                let Statement::Select(sel) = stmt;
                let plan = self.lower_select(catalog, sel, false, &mut shared)?;
                let order_by = resolve_order(catalog, &plan, &sel.order_by)?;
                Ok(PlannedQuery {
                    label: format!("q{}", i + 1),
                    plan,
                    order_by,
                })
            })
            .collect()
    }

    /// Plans one statement under the given label.
    ///
    /// # Panics
    ///
    /// Panics if the planner yields no plan for a single statement — an internal bug.
    pub fn plan(
        &mut self,
        catalog: &mut Catalog,
        stmt: &Statement,
        label: &str,
    ) -> Result<PlannedQuery, SqlError> {
        let mut planned = self.plan_statements(catalog, std::slice::from_ref(stmt))?;
        let mut q = planned.pop().expect("one statement in, one plan out");
        q.label = label.to_string();
        Ok(q)
    }

    /// Lowers one SELECT (recursively for FROM subqueries).
    fn lower_select(
        &mut self,
        catalog: &mut Catalog,
        sel: &Select,
        nested: bool,
        shared: &mut SharedNeeds,
    ) -> Result<LogicalPlan, SqlError> {
        if nested && !sel.order_by.is_empty() {
            return Err(SqlError::new(
                SqlErrorKind::Unsupported("ORDER BY is not supported in subqueries".into()),
                sel.order_by[0].span,
            ));
        }

        // -- FROM: lower each source (subqueries recurse, mutating the
        // catalog), then freeze the scope for resolution.
        let mut names: Vec<String> = Vec::new();
        let mut metas: Vec<Source> = Vec::new();
        let mut plans: Vec<LogicalPlan> = Vec::new();
        for (i, item) in sel.from.iter().enumerate() {
            let (name, plan, cols, kind, name_span) = match &item.rel {
                Rel::Table { name } => {
                    let Some(t) = table_by_name_ci(catalog, &name.name) else {
                        return Err(SqlError::new(
                            SqlErrorKind::UnknownTable(name.name.clone()),
                            name.span,
                        ));
                    };
                    let (tid, cols) = (t.id, t.columns.clone());
                    (
                        name.name.clone(),
                        LogicalPlan::scan(tid),
                        cols,
                        SourceKind::Base(tid),
                        name.span,
                    )
                }
                Rel::Subquery { query, alias } => {
                    let plan = self.lower_select(catalog, query, true, shared)?;
                    let cols = plan.output_cols(catalog);
                    let name = alias
                        .as_ref()
                        .map(|a| a.name.clone())
                        // unnamed derived tables get an unreferencable
                        // placeholder (idents cannot contain `#`)
                        .unwrap_or_else(|| format!("#sub{i}"));
                    let span = alias.as_ref().map_or(item.span, |a| a.span);
                    (name, plan, cols, SourceKind::Derived, span)
                }
            };
            if names.iter().any(|n| n.eq_ignore_ascii_case(&name)) {
                return Err(SqlError::new(SqlErrorKind::DuplicateTable(name), name_span));
            }
            names.push(name.clone());
            metas.push(Source { name, cols, kind });
            plans.push(plan);
        }

        // -- Resolution phase (immutable catalog borrow).
        let resolved = {
            let scope = Scope::new(catalog, metas);
            resolve_select(&scope, sel)?
        };

        // -- Assembly phase (may register derived columns).
        let n = plans.len();
        let mut filters: Vec<Option<Predicate>> = vec![None; n];
        let mut join_preds: Vec<Option<Predicate>> = vec![None; n];
        for LoweredPred { pred, sources } in resolved.conjuncts {
            if sources.len() <= 1 {
                let si = sources.first().copied().unwrap_or(0);
                and_into(&mut filters[si], pred);
            } else {
                let at = *sources.last().expect("non-empty");
                and_into(&mut join_preds[at], pred);
            }
        }

        let mut lowered: Vec<LogicalPlan> = Vec::with_capacity(n);
        for (si, plan) in plans.into_iter().enumerate() {
            let filter = filters[si].take();
            if let SourceKind::Base(tid) = resolved.kinds[si] {
                let key = SharedNeeds::key(tid, &filter);
                let local: FxHashSet<ColId> = catalog
                    .table_ref(tid)
                    .columns
                    .iter()
                    .copied()
                    .filter(|c| resolved.needed.contains(c))
                    .collect();
                if shared.collecting {
                    shared
                        .by_unit
                        .entry(key.clone())
                        .or_default()
                        .extend(&local);
                }
                let needed = shared.by_unit.get(&key).unwrap_or(&local);
                let mut p = plan;
                if let Some(f) = filter {
                    p = p.select(f);
                }
                p = project_needed(catalog, p, tid, needed);
                lowered.push(p);
            } else {
                let mut p = plan;
                if let Some(f) = filter {
                    p = p.select(f);
                }
                lowered.push(p);
            }
        }

        let mut it = lowered.into_iter();
        let mut acc = it.next().expect("FROM has at least one item");
        for (i, right) in it.enumerate() {
            let pred = join_preds[i + 1].take().unwrap_or_else(Predicate::true_);
            acc = acc.join(right, pred);
        }

        // -- Aggregation / projection.
        let has_agg = resolved.items.iter().any(|i| matches!(i, Item::Agg { .. }));
        let plan = if has_agg || !resolved.group_keys.is_empty() {
            for item in &resolved.items {
                if let Item::Col(id, span) = item {
                    if !resolved.group_keys.contains(id) {
                        return Err(SqlError::new(
                            SqlErrorKind::Invalid(format!(
                                "column `{}` must appear in GROUP BY or inside an aggregate",
                                catalog.column(*id).name
                            )),
                            *span,
                        ));
                    }
                }
            }
            let mut aggs: Vec<AggExpr> = Vec::new();
            let mut select_order: Vec<ColId> = Vec::new();
            for item in &resolved.items {
                match item {
                    Item::Col(id, _) => select_order.push(*id),
                    Item::Agg {
                        func,
                        arg,
                        ty,
                        alias,
                        ..
                    } => {
                        let out = self.agg_output(catalog, *func, arg, *ty, alias.as_deref());
                        if !aggs.iter().any(|a| a.output == out) {
                            aggs.push(AggExpr::new(*func, arg.clone(), out));
                        }
                        select_order.push(out);
                    }
                }
            }
            let mut natural = resolved.group_keys.clone();
            natural.extend(aggs.iter().map(|a| a.output));
            let plan = acc.aggregate(resolved.group_keys, aggs);
            maybe_project(plan, &natural, select_order)
        } else {
            let natural = acc.output_cols(catalog);
            match resolved.star {
                true => acc,
                false => {
                    let select_order: Vec<ColId> = resolved
                        .items
                        .iter()
                        .map(|i| match i {
                            Item::Col(id, _) => *id,
                            Item::Agg { .. } => unreachable!("no aggregates on this path"),
                        })
                        .collect();
                    maybe_project(acc, &natural, select_order)
                }
            }
        };

        validate(&plan, catalog).map_err(|e| {
            SqlError::new(
                SqlErrorKind::Invalid(format!("plan validation failed: {}", e.message)),
                sel.span,
            )
        })?;
        Ok(plan)
    }

    /// The derived output column for an aggregate item: aliased items
    /// reuse a same-named derived column of matching type (so `AS rev`
    /// binds to a pre-registered view column); unaliased items are
    /// memoized by `(func, arg)` so textual repetition shares outputs.
    fn agg_output(
        &mut self,
        catalog: &mut Catalog,
        func: AggFunc,
        arg: &ScalarExpr,
        ty: ColType,
        alias: Option<&str>,
    ) -> ColId {
        if let Some(name) = alias {
            if let Some(c) = catalog
                .columns()
                .iter()
                .find(|c| c.table.is_none() && c.name.eq_ignore_ascii_case(name) && c.ty == ty)
            {
                return c.id;
            }
            return catalog.derived_column(name, ty, ColStats::opaque(1000.0));
        }
        if let Some(&id) = self.agg_memo.get(&(func, arg.clone())) {
            return id;
        }
        let name = format!("{}_{}", func_name(func), self.fresh);
        self.fresh += 1;
        let id = catalog.derived_column(&name, ty, ColStats::opaque(1000.0));
        self.agg_memo.insert((func, arg.clone()), id);
        id
    }
}

/// A resolved select-list item.
enum Item {
    /// A bare column.
    Col(ColId, Span),
    /// An aggregate call.
    Agg {
        func: AggFunc,
        arg: ScalarExpr,
        ty: ColType,
        alias: Option<String>,
    },
}

/// Everything the resolution phase extracts under the immutable borrow.
struct Resolved {
    kinds: Vec<SourceKind>,
    conjuncts: Vec<LoweredPred>,
    items: Vec<Item>,
    star: bool,
    group_keys: Vec<ColId>,
    /// Columns referenced outside pushed-down filters.
    needed: FxHashSet<ColId>,
}

fn resolve_select(scope: &Scope<'_>, sel: &Select) -> Result<Resolved, SqlError> {
    // Conjuncts: top-level ANDs of every ON clause and the WHERE clause.
    let mut conj_exprs: Vec<&Expr> = Vec::new();
    for item in &sel.from {
        if let JoinKind::Inner { on } = &item.join {
            split_ands(on, &mut conj_exprs);
        }
    }
    if let Some(w) = &sel.where_ {
        split_ands(w, &mut conj_exprs);
    }
    let conjuncts = conj_exprs
        .into_iter()
        .map(|e| scope.lower_pred(e))
        .collect::<Result<Vec<_>, _>>()?;

    let mut needed: FxHashSet<ColId> = FxHashSet::default();
    for c in &conjuncts {
        if c.sources.len() > 1 {
            needed.extend(c.pred.columns());
        }
    }

    let mut group_keys = Vec::new();
    for g in &sel.group_by {
        let (_, id) = scope.resolve(g)?;
        if !group_keys.contains(&id) {
            group_keys.push(id);
        }
        needed.insert(id);
    }

    let (star, items) = match &sel.projection {
        Projection::Star(span) => {
            if !group_keys.is_empty() {
                return Err(SqlError::new(
                    SqlErrorKind::Invalid("SELECT * cannot be combined with GROUP BY".into()),
                    *span,
                ));
            }
            for s in &scope.sources {
                needed.extend(s.cols.iter().copied());
            }
            (true, Vec::new())
        }
        Projection::Items(list) => {
            let mut items = Vec::with_capacity(list.len());
            for it in list {
                items.push(resolve_item(scope, it, &mut needed)?);
            }
            (false, items)
        }
    };

    Ok(Resolved {
        kinds: scope.sources.iter().map(|s| s.kind).collect(),
        conjuncts,
        items,
        star,
        group_keys,
        needed,
    })
}

fn resolve_item(
    scope: &Scope<'_>,
    it: &SelectItem,
    needed: &mut FxHashSet<ColId>,
) -> Result<Item, SqlError> {
    match &it.expr {
        Expr::Col(c) => {
            if let Some(a) = &it.alias {
                return Err(SqlError::new(
                    SqlErrorKind::Unsupported(
                        "column aliases are not supported (columns keep their names)".into(),
                    ),
                    a.span,
                ));
            }
            let (_, id) = scope.resolve(c)?;
            needed.insert(id);
            Ok(Item::Col(id, c.span))
        }
        Expr::Call {
            func,
            args,
            star,
            span,
        } => {
            let f = match func.name.to_ascii_lowercase().as_str() {
                "sum" => AggFunc::Sum,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                "count" => AggFunc::Count,
                other => {
                    return Err(SqlError::new(
                        SqlErrorKind::Unsupported(format!(
                            "unknown function `{other}` (supported: SUM, MIN, MAX, COUNT)"
                        )),
                        func.span,
                    ))
                }
            };
            let (arg, ty) = if *star {
                if f != AggFunc::Count {
                    return Err(SqlError::new(
                        SqlErrorKind::WrongArity(format!(
                            "{}(*) is not valid; only COUNT takes `*`",
                            func_name(f).to_uppercase()
                        )),
                        *span,
                    ));
                }
                (ScalarExpr::constant(1i64), ColType::Int)
            } else {
                if args.len() != 1 {
                    return Err(SqlError::new(
                        SqlErrorKind::WrongArity(format!(
                            "{} takes exactly one argument, got {}",
                            func_name(f).to_uppercase(),
                            args.len()
                        )),
                        *span,
                    ));
                }
                let (expr, ety, _) = scope.lower_scalar(&args[0])?;
                if f == AggFunc::Sum && !ety.numeric() {
                    return Err(SqlError::new(
                        SqlErrorKind::TypeMismatch("SUM requires a numeric argument".into()),
                        args[0].span(),
                    ));
                }
                let ty = match (f, &expr) {
                    (AggFunc::Count, _) => ColType::Int,
                    (AggFunc::Sum, _) => ColType::Float,
                    // MIN/MAX return a value of the argument itself
                    (_, ScalarExpr::Col(c)) => scope.catalog.column(*c).ty,
                    _ => match ety {
                        ExprTy::Int => ColType::Int,
                        _ => ColType::Float,
                    },
                };
                (expr, ty)
            };
            let mut cols = Vec::new();
            arg.collect_cols(&mut cols);
            needed.extend(cols);
            Ok(Item::Agg {
                func: f,
                arg,
                ty,
                alias: it.alias.as_ref().map(|a| a.name.clone()),
            })
        }
        Expr::Lit { span, .. } => Err(SqlError::new(
            SqlErrorKind::Unsupported("constant select items are not supported".into()),
            *span,
        )),
        Expr::Bin { span, .. } => Err(SqlError::new(
            SqlErrorKind::Unsupported(
                "computed select items are only supported inside aggregates".into(),
            ),
            *span,
        )),
    }
}

/// Splits top-level ANDs into conjunct expressions.
fn split_ands<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Bin {
        op: BinOp::And,
        left,
        right,
        ..
    } = e
    {
        split_ands(left, out);
        split_ands(right, out);
    } else {
        out.push(e);
    }
}

fn and_into(slot: &mut Option<Predicate>, pred: Predicate) {
    *slot = Some(match slot.take() {
        Some(p) => p.and(&pred),
        None => pred,
    });
}

/// The workloads' `keep` idiom: project a base scan to the columns the
/// query needs beyond its pushed-down filter, in declaration order.
/// Skipped when that is every column (projection would be a no-op) or
/// no column (e.g. a bare `COUNT(*)` input).
fn project_needed(
    catalog: &Catalog,
    plan: LogicalPlan,
    tid: TableId,
    needed: &FxHashSet<ColId>,
) -> LogicalPlan {
    let all = &catalog.table_ref(tid).columns;
    let keep: Vec<ColId> = all.iter().copied().filter(|c| needed.contains(c)).collect();
    if keep.is_empty() || keep.len() == all.len() {
        plan
    } else {
        plan.project(keep)
    }
}

/// Appends a projection only when the select order differs from the
/// plan's natural output order.
fn maybe_project(plan: LogicalPlan, natural: &[ColId], select_order: Vec<ColId>) -> LogicalPlan {
    if select_order.as_slice() == natural {
        plan
    } else {
        plan.project(select_order)
    }
}

/// Resolves ORDER BY keys against the final output columns. Keys may
/// name base columns (optionally qualified) or aggregate outputs.
fn resolve_order(
    catalog: &Catalog,
    plan: &LogicalPlan,
    keys: &[OrderKey],
) -> Result<Vec<SortKey>, SqlError> {
    if keys.is_empty() {
        return Ok(Vec::new());
    }
    let out_cols = plan.output_cols(catalog);
    let mut sort = Vec::with_capacity(keys.len());
    for k in keys {
        let mut hits = out_cols.iter().copied().filter(|&id| {
            let col = catalog.column(id);
            if !col.name.eq_ignore_ascii_case(&k.col.column.name) {
                return false;
            }
            match (&k.col.table, col.table) {
                (None, _) => true,
                (Some(q), Some(t)) => catalog.table_ref(t).name.eq_ignore_ascii_case(&q.name),
                (Some(_), None) => false,
            }
        });
        let Some(first) = hits.next() else {
            return Err(SqlError::new(
                SqlErrorKind::Invalid(format!(
                    "ORDER BY column `{}` is not in the query output",
                    k.col.column.name
                )),
                k.col.span,
            ));
        };
        if hits.next().is_some() {
            return Err(SqlError::new(
                SqlErrorKind::AmbiguousColumn(k.col.column.name.clone()),
                k.col.span,
            ));
        }
        sort.push(SortKey {
            col: first,
            desc: k.desc,
        });
    }
    Ok(sort)
}

fn func_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Sum => "sum",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Count => "count",
    }
}

fn table_by_name_ci<'a>(catalog: &'a Catalog, name: &str) -> Option<&'a mqo_catalog::Table> {
    catalog
        .tables()
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(name))
}

/// Re-sorts a result table by `keys` (stable, so ties keep the
/// engine-produced order). Used by callers to honour `ORDER BY`, which
/// the plan algebra itself does not carry.
#[must_use]
pub fn apply_order(table: &mqo_exec::Table, keys: &[SortKey]) -> mqo_exec::Table {
    if keys.is_empty() {
        return table.clone();
    }
    let positions: Vec<(usize, bool)> = keys
        .iter()
        .filter_map(|k| {
            table
                .schema
                .iter()
                .position(|&c| c == k.col)
                .map(|p| (p, k.desc))
        })
        .collect();
    let mut rows = table.to_rows();
    rows.sort_by(|a, b| {
        for &(p, desc) in &positions {
            let ord = a[p].sort_cmp(&b[p]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let mut out = mqo_exec::Table::new(table.schema.clone(), rows);
    out.sorted_on = keys.iter().map(|k| k.col).collect();
    out
}

/// Converts planned queries into a [`mqo_logical::Batch`], dropping the
/// ORDER BY component (callers keep the [`SortKey`]s to apply to
/// results).
#[must_use]
pub fn to_batch(queries: &[PlannedQuery]) -> mqo_logical::Batch {
    mqo_logical::Batch::of(
        queries
            .iter()
            .map(|q| mqo_logical::Query::new(q.label.clone(), q.plan.clone()))
            .collect(),
    )
}

/// Parses, analyzes and plans a statement list against `catalog` — the
/// one-call form of the pipeline.
pub fn compile(catalog: &mut Catalog, sql: &str) -> Result<Vec<PlannedQuery>, SqlError> {
    SqlPlanner::new().plan_text(catalog, sql)
}
