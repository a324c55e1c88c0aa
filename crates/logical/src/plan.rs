//! Logical plan trees and batches.

use mqo_catalog::{Catalog, ColId, TableId};
use mqo_expr::{AggExpr, Predicate};

/// A logical plan tree. Joins are inner joins; `pred` on a join is the
/// conjunction of join conditions between the two sides.
///
/// Equality and hashing are structural, with predicate constants
/// compared as [`Value`](mqo_expr::Value)s compare — the identity a
/// session's plan cache keys recurring batches by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalPlan {
    /// Base table scan.
    Scan(TableId),
    /// Selection.
    Select {
        /// Filter predicate.
        pred: Predicate,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Inner join.
    Join {
        /// Join predicate (typically a conjunction of column equalities).
        pred: Predicate,
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
    },
    /// Grouping aggregation; an empty key list is a scalar aggregate.
    Aggregate {
        /// Group-by columns.
        keys: Vec<ColId>,
        /// Aggregate expressions (each bound to a derived output column).
        aggs: Vec<AggExpr>,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Projection to a subset of columns.
    Project {
        /// Output columns.
        cols: Vec<ColId>,
        /// Input plan.
        input: Box<LogicalPlan>,
    },
}

impl LogicalPlan {
    /// Base-table scan.
    #[must_use]
    pub fn scan(t: TableId) -> Self {
        LogicalPlan::Scan(t)
    }

    /// Wraps `self` in a selection.
    #[must_use]
    pub fn select(self, pred: Predicate) -> Self {
        LogicalPlan::Select {
            pred,
            input: Box::new(self),
        }
    }

    /// Joins `self` with `right` on `pred`.
    #[must_use]
    pub fn join(self, right: LogicalPlan, pred: Predicate) -> Self {
        LogicalPlan::Join {
            pred,
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Wraps `self` in an aggregation.
    #[must_use]
    pub fn aggregate(self, keys: Vec<ColId>, aggs: Vec<AggExpr>) -> Self {
        LogicalPlan::Aggregate {
            keys,
            aggs,
            input: Box::new(self),
        }
    }

    /// Wraps `self` in a projection.
    #[must_use]
    pub fn project(self, cols: Vec<ColId>) -> Self {
        LogicalPlan::Project {
            cols,
            input: Box::new(self),
        }
    }

    /// Output columns of this plan.
    #[must_use]
    pub fn output_cols(&self, catalog: &Catalog) -> Vec<ColId> {
        match self {
            LogicalPlan::Scan(t) => catalog.table_ref(*t).columns.clone(),
            LogicalPlan::Select { input, .. } => input.output_cols(catalog),
            LogicalPlan::Join { left, right, .. } => {
                let mut cols = left.output_cols(catalog);
                cols.extend(right.output_cols(catalog));
                cols
            }
            LogicalPlan::Aggregate { keys, aggs, .. } => {
                let mut cols = keys.clone();
                cols.extend(aggs.iter().map(|a| a.output));
                cols
            }
            LogicalPlan::Project { cols, .. } => cols.clone(),
        }
    }

    /// Base tables referenced by this plan, in scan order.
    #[must_use]
    pub fn tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        self.walk(&mut |p| {
            if let LogicalPlan::Scan(t) = p {
                out.push(*t);
            }
        });
        out
    }

    /// Depth-first pre-order traversal.
    pub fn walk(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::Scan(_) => {}
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. } => input.walk(f),
            LogicalPlan::Join { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
        }
    }

    /// Number of operator nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Multi-line, indented explain string with catalog names.
    #[must_use]
    pub fn explain(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.explain_into(catalog, 0, &mut out);
        out
    }

    fn explain_into(&self, catalog: &Catalog, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan(t) => {
                let _ = writeln!(out, "{pad}Scan {}", catalog.table_ref(*t).name);
            }
            LogicalPlan::Select { pred, input } => {
                let _ = writeln!(out, "{pad}Select {pred}");
                input.explain_into(catalog, depth + 1, out);
            }
            LogicalPlan::Join { pred, left, right } => {
                let _ = writeln!(out, "{pad}Join {pred}");
                left.explain_into(catalog, depth + 1, out);
                right.explain_into(catalog, depth + 1, out);
            }
            LogicalPlan::Aggregate { keys, aggs, input } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| catalog.column(*k).name.clone())
                    .collect();
                let aggs: Vec<String> = aggs
                    .iter()
                    .map(|a| format!("{:?}->{}", a.func, catalog.column(a.output).name))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}Aggregate [{}] {}",
                    keys.join(","),
                    aggs.join(",")
                );
                input.explain_into(catalog, depth + 1, out);
            }
            LogicalPlan::Project { cols, input } => {
                let cols: Vec<String> = cols
                    .iter()
                    .map(|c| catalog.column(*c).name.clone())
                    .collect();
                let _ = writeln!(out, "{pad}Project [{}]", cols.join(","));
                input.explain_into(catalog, depth + 1, out);
            }
        }
    }
}

/// One query of a batch.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query's plan tree.
    pub plan: LogicalPlan,
    /// Invocation weight: 1 for plain queries; the estimated invocation
    /// count for nested/parameterized queries (paper §5). Costs and
    /// sharing benefits of this query's nodes scale by this factor.
    pub weight: f64,
    /// Human-readable name used in reports.
    pub label: String,
}

impl Query {
    /// A plain, weight-1 query.
    pub fn new(label: impl Into<String>, plan: LogicalPlan) -> Self {
        Self {
            plan,
            weight: 1.0,
            label: label.into(),
        }
    }

    /// A query invoked `weight` times (nested subquery or parameterized
    /// query template).
    pub fn invoked(label: impl Into<String>, plan: LogicalPlan, weight: f64) -> Self {
        Self {
            plan,
            weight: weight.max(1.0),
            label: label.into(),
        }
    }
}

/// The unit of multi-query optimization: queries optimized together under
/// one pseudo-root.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// The member queries.
    pub queries: Vec<Query>,
}

impl Batch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch of one plain query.
    #[must_use]
    pub fn single(label: &str, plan: LogicalPlan) -> Self {
        Self {
            queries: vec![Query::new(label, plan)],
        }
    }

    /// Builds a batch from queries.
    #[must_use]
    pub fn of(queries: Vec<Query>) -> Self {
        Self { queries }
    }

    /// Appends a query.
    pub fn push(&mut self, q: Query) -> &mut Self {
        self.queries.push(q);
        self
    }

    /// Number of queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the batch has no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The batch with query order reversed (Volcano-RU considers both
    /// orders, paper §3.3).
    #[must_use]
    pub fn reversed(&self) -> Batch {
        let mut queries = self.queries.clone();
        queries.reverse();
        Batch { queries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::{Catalog, ColStats, ColType};
    use mqo_expr::{AggFunc, Atom, CmpOp, ScalarExpr};

    fn setup() -> (Catalog, TableId, TableId) {
        let mut cat = Catalog::new();
        let r = cat
            .table("r")
            .rows(100.0)
            .int_key("rk")
            .int_uniform("rv", 0, 9)
            .build();
        let s = cat
            .table("s")
            .rows(200.0)
            .int_key("sk")
            .int_uniform("rfk", 0, 99)
            .build();
        (cat, r, s)
    }

    #[test]
    fn builder_shapes_tree() {
        let (cat, r, s) = setup();
        let rk = cat.col("r", "rk");
        let rfk = cat.col("s", "rfk");
        let plan = LogicalPlan::scan(r)
            .join(
                LogicalPlan::scan(s),
                Predicate::atom(Atom::eq_cols(rk, rfk)),
            )
            .select(Predicate::atom(Atom::cmp(
                cat.col("r", "rv"),
                CmpOp::Lt,
                5i64,
            )));
        assert_eq!(plan.node_count(), 4);
        assert_eq!(plan.tables(), vec![r, s]);
    }

    #[test]
    fn output_cols_flow() {
        let (mut cat, r, s) = setup();
        let rk = cat.col("r", "rk");
        let rfk = cat.col("s", "rfk");
        let total = cat.derived_column("total", ColType::Float, ColStats::opaque(50.0));
        let join = LogicalPlan::scan(r).join(
            LogicalPlan::scan(s),
            Predicate::atom(Atom::eq_cols(rk, rfk)),
        );
        assert_eq!(join.output_cols(&cat).len(), 4);
        let agg = join.aggregate(
            vec![rk],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(rfk), total)],
        );
        assert_eq!(agg.output_cols(&cat), vec![rk, total]);
        let proj = agg.project(vec![total]);
        assert_eq!(proj.output_cols(&cat), vec![total]);
    }

    #[test]
    fn batch_reversal_preserves_members() {
        let (_, r, s) = setup();
        let b = Batch::of(vec![
            Query::new("a", LogicalPlan::scan(r)),
            Query::new("b", LogicalPlan::scan(s)),
        ]);
        let rev = b.reversed();
        assert_eq!(rev.queries[0].label, "b");
        assert_eq!(rev.queries[1].label, "a");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn invoked_weight_clamped() {
        let (_, r, _) = setup();
        let q = Query::invoked("inner", LogicalPlan::scan(r), 0.25);
        assert_eq!(q.weight, 1.0);
        let q = Query::invoked("inner", LogicalPlan::scan(r), 4000.0);
        assert_eq!(q.weight, 4000.0);
    }

    #[test]
    fn explain_renders_names() {
        let (cat, r, s) = setup();
        let rk = cat.col("r", "rk");
        let rfk = cat.col("s", "rfk");
        let plan = LogicalPlan::scan(r).join(
            LogicalPlan::scan(s),
            Predicate::atom(Atom::eq_cols(rk, rfk)),
        );
        let text = plan.explain(&cat);
        assert!(text.contains("Scan r"));
        assert!(text.contains("Scan s"));
        assert!(text.contains("Join"));
    }
}
