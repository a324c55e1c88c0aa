//! Physical operator implementations over in-memory tables.
//!
//! Operators are pull-based (`Iterator<Item = Row>`) where streaming is
//! natural (scan, filter, project, joins over materialized inputs) and
//! buffer internally where the algorithm is blocking (sort, sort-based
//! aggregation) — mirroring the pipelined/blocking distinction the cost
//! model charges for.

use crate::table::{Row, Table};
use mqo_catalog::ColId;
use mqo_expr::{AggExpr, CmpOp, ParamId, Predicate, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Parameter bindings for correlated/parameterized execution.
pub type Params = mqo_util::FxHashMap<ParamId, Value>;

/// Evaluates `pred` against a row under `schema`. Column resolution
/// borrows the cell (`&Value`) — no per-row, per-atom clones (`Str`
/// cells used to cost a heap clone each time they were compared).
///
/// # Panics
///
/// Panics on an unbound query parameter or a column missing from `schema`.
#[must_use]
pub fn eval_pred(pred: &Predicate, schema: &[ColId], row: &Row, params: &Params) -> bool {
    let resolve =
        |c: ColId| -> Option<&Value> { schema.iter().position(|&x| x == c).map(|i| &row[i]) };
    let lookup = |p: ParamId| -> &Value {
        params
            .get(&p)
            .unwrap_or_else(|| panic!("unbound parameter :{p}"))
    };
    pred.eval_ref(&resolve, &lookup)
}

/// Extracts `[lo, hi]` bounds (inclusive) on `col` from a predicate, for
/// clustered-index range probes. Conservative: returns the loosest bounds
/// implied by the top-level conjunct; the full predicate is re-checked on
/// every row anyway.
#[must_use]
pub fn probe_bounds(
    pred: &Predicate,
    col: ColId,
    params: &Params,
) -> (Option<Value>, Option<Value>) {
    let [conj] = pred.disjuncts() else {
        return (None, None);
    };
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    for atom in conj.atoms() {
        let (c, op, v) = match atom {
            mqo_expr::Atom::Cmp { col: c, op, val } => (*c, *op, val.clone()),
            mqo_expr::Atom::Param { col: c, op, param } => match params.get(param) {
                Some(v) => (*c, *op, v.clone()),
                None => continue,
            },
            _ => continue,
        };
        if c != col {
            continue;
        }
        match op {
            CmpOp::Eq => {
                lo = Some(v.clone());
                hi = Some(v);
            }
            CmpOp::Ge | CmpOp::Gt => lo = Some(v),
            CmpOp::Le | CmpOp::Lt => hi = Some(v),
            CmpOp::Ne => {}
        }
    }
    (lo, hi)
}

/// Full scan of a table.
pub fn scan(table: Arc<Table>) -> impl Iterator<Item = Row> {
    (0..table.len()).map(move |i| table.row(i))
}

/// Clustered-index range scan: binary-search the sorted table using the
/// predicate's bounds on the clustering column, then re-check the full
/// predicate.
pub fn index_scan(
    table: Arc<Table>,
    pred: Predicate,
    col: ColId,
    params: Params,
) -> impl Iterator<Item = Row> {
    let (lo, hi) = probe_bounds(&pred, col, &params);
    let (start, end) = table.range_on_sorted(lo.as_ref(), hi.as_ref());
    let schema = table.schema.clone();
    (start..end)
        .map(move |i| table.row(i))
        .filter(move |r| eval_pred(&pred, &schema, r, &params))
}

/// Pipelined filter.
pub fn filter<'a>(
    input: Box<dyn Iterator<Item = Row> + 'a>,
    schema: Vec<ColId>,
    pred: Predicate,
    params: Params,
) -> impl Iterator<Item = Row> + 'a {
    input.filter(move |r| eval_pred(&pred, &schema, r, &params))
}

/// Projection to a subset of columns (by position mapping).
///
/// # Panics
///
/// Panics if a projected column is missing from `in_schema`.
pub fn project<'a>(
    input: Box<dyn Iterator<Item = Row> + 'a>,
    in_schema: &[ColId],
    cols: &[ColId],
) -> impl Iterator<Item = Row> + 'a {
    let pos: Vec<usize> = cols
        .iter()
        .map(|&c| in_schema.iter().position(|&x| x == c).expect("project col"))
        .collect();
    input.map(move |r| pos.iter().map(|&p| r[p].clone()).collect())
}

/// Nested-loops join: inner spooled, outer streamed.
pub fn nl_join<'a>(
    outer: Box<dyn Iterator<Item = Row> + 'a>,
    inner: Vec<Row>,
    out_schema: Vec<ColId>,
    pred: Predicate,
    params: Params,
) -> impl Iterator<Item = Row> + 'a {
    outer.flat_map(move |o| {
        let mut matches = Vec::new();
        for i in &inner {
            let mut row = o.clone();
            row.extend(i.iter().cloned());
            if eval_pred(&pred, &out_schema, &row, &params) {
                matches.push(row);
            }
        }
        matches
    })
}

/// Merge join of two inputs sorted on their key columns. Buffers only the
/// current key group of the right side.
///
/// # Panics
///
/// Panics if a join key is missing from its side's schema.
#[allow(clippy::too_many_arguments)] // mirrors the operator's full signature
#[must_use]
pub fn merge_join(
    left: &[Row],
    left_schema: &[ColId],
    right: &[Row],
    right_schema: &[ColId],
    left_keys: &[ColId],
    right_keys: &[ColId],
    residual: &Predicate,
    params: &Params,
) -> Vec<Row> {
    let lp: Vec<usize> = left_keys
        .iter()
        .map(|&k| left_schema.iter().position(|&x| x == k).expect("lkey"))
        .collect();
    let rp: Vec<usize> = right_keys
        .iter()
        .map(|&k| right_schema.iter().position(|&x| x == k).expect("rkey"))
        .collect();
    let key_cmp = |a: &Row, b: &Row| -> Ordering {
        lp.iter()
            .zip(rp.iter())
            .map(|(&i, &j)| a[i].sort_cmp(&b[j]))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    };
    let out_schema: Vec<ColId> = left_schema.iter().chain(right_schema).copied().collect();
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match key_cmp(&left[i], &right[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // group of equal keys on both sides
                let j_end = {
                    let mut je = j;
                    while je < right.len() && key_cmp(&left[i], &right[je]) == Ordering::Equal {
                        je += 1;
                    }
                    je
                };
                let mut ii = i;
                while ii < left.len() && key_cmp(&left[ii], &right[j]) == Ordering::Equal {
                    // keys may contain Null or NaN, which equal nothing
                    // under SQL equality, themselves included. Invariant
                    // per left row, so checked once, not once per right
                    // row of the group.
                    if lp
                        .iter()
                        .any(|&p| left[ii][p].cmp_maybe(&left[ii][p]).is_none())
                    {
                        ii += 1;
                        continue;
                    }
                    for rrow in &right[j..j_end] {
                        let mut row = left[ii].clone();
                        row.extend(rrow.iter().cloned());
                        if eval_pred(residual, &out_schema, &row, params) {
                            out.push(row);
                        }
                    }
                    ii += 1;
                }
                i = ii;
                j = j_end;
            }
        }
    }
    out
}

/// Indexed nested-loops join: for each outer row, range-probe the sorted
/// inner table on the join key.
///
/// # Panics
///
/// Panics if `outer_key` is missing from `outer_schema`.
pub fn indexed_nl_join<'a>(
    outer: Box<dyn Iterator<Item = Row> + 'a>,
    outer_schema: &[ColId],
    inner: Arc<Table>,
    outer_key: ColId,
    residual: Predicate,
    params: Params,
) -> impl Iterator<Item = Row> + 'a {
    let okp = outer_schema
        .iter()
        .position(|&c| c == outer_key)
        .expect("outer key");
    let out_schema: Vec<ColId> = outer_schema
        .iter()
        .chain(inner.schema.iter())
        .copied()
        .collect();
    outer.flat_map(move |o| {
        let key = &o[okp];
        let mut matches = Vec::new();
        if !matches!(key, Value::Null) {
            let (s, e) = inner.range_on_sorted(Some(key), Some(key));
            for idx in s..e {
                let mut row = o.clone();
                row.extend(inner.row(idx));
                if eval_pred(&residual, &out_schema, &row, &params) {
                    matches.push(row);
                }
            }
        }
        matches
    })
}

/// Sort-based aggregation over an input sorted by `keys` (scalar
/// aggregation for empty `keys`).
///
/// # Panics
///
/// Panics if a grouping key is missing from `in_schema`.
#[must_use]
pub fn sort_aggregate(
    input: &[Row],
    in_schema: &[ColId],
    keys: &[ColId],
    aggs: &[AggExpr],
) -> Vec<Row> {
    let kp: Vec<usize> = keys
        .iter()
        .map(|&k| in_schema.iter().position(|&x| x == k).expect("agg key"))
        .collect();
    let same_group = |a: &Row, b: &Row| kp.iter().all(|&p| a[p].sort_cmp(&b[p]) == Ordering::Equal);
    let mut out = Vec::new();
    let mut start = 0usize;
    if input.is_empty() {
        if keys.is_empty() {
            // scalar aggregate over empty input: one row of "empty" accs
            let mut row: Row = Vec::new();
            for a in aggs {
                let acc = match a.func {
                    mqo_expr::AggFunc::Count => Some(Value::Int(0)),
                    _ => None,
                };
                row.push(acc.unwrap_or(Value::Null));
            }
            out.push(row);
        }
        return out;
    }
    while start < input.len() {
        let mut end = start + 1;
        while end < input.len() && same_group(&input[start], &input[end]) {
            end += 1;
        }
        let mut accs: Vec<Option<Value>> = vec![None; aggs.len()];
        for row in &input[start..end] {
            let resolve = |c: ColId| -> Option<&Value> {
                in_schema.iter().position(|&x| x == c).map(|i| &row[i])
            };
            for (ai, a) in aggs.iter().enumerate() {
                let v = a.arg.eval_ref(&resolve);
                a.accumulate(&mut accs[ai], v);
            }
        }
        let mut row: Row = kp.iter().map(|&p| input[start][p].clone()).collect();
        row.extend(accs.into_iter().map(|a| a.unwrap_or(Value::Null)));
        out.push(row);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_expr::{AggFunc, Atom, ScalarExpr};

    fn c(i: u32) -> ColId {
        ColId(i)
    }
    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn table(schema: Vec<ColId>, rows: Vec<Row>) -> Arc<Table> {
        Arc::new(Table::new(schema, rows))
    }

    #[test]
    fn filter_applies_predicate() {
        let rows = vec![vec![v(1)], vec![v(5)], vec![v(9)]];
        let pred = Predicate::atom(Atom::cmp(c(0), CmpOp::Ge, 5i64));
        let got: Vec<Row> = filter(
            Box::new(rows.into_iter()),
            vec![c(0)],
            pred,
            Params::default(),
        )
        .collect();
        assert_eq!(got, vec![vec![v(5)], vec![v(9)]]);
    }

    #[test]
    fn index_scan_uses_bounds_and_rechecks() {
        let mut t = Table::new(
            vec![c(0), c(1)],
            vec![
                vec![v(1), v(0)],
                vec![v(2), v(1)],
                vec![v(3), v(0)],
                vec![v(4), v(1)],
            ],
        );
        t.sort_by(&[c(0)]);
        let pred = Predicate::all(vec![
            Atom::cmp(c(0), CmpOp::Ge, 2i64),
            Atom::cmp(c(1), CmpOp::Eq, 1i64),
        ]);
        let got: Vec<Row> = index_scan(Arc::new(t), pred, c(0), Params::default()).collect();
        assert_eq!(got, vec![vec![v(2), v(1)], vec![v(4), v(1)]]);
    }

    #[test]
    fn merge_join_handles_duplicate_keys() {
        let left = vec![vec![v(1)], vec![v(2)], vec![v(2)], vec![v(3)]];
        let right = vec![vec![v(2), v(20)], vec![v(2), v(21)], vec![v(4), v(40)]];
        let out = merge_join(
            &left,
            &[c(0)],
            &right,
            &[c(1), c(2)],
            &[c(0)],
            &[c(1)],
            &Predicate::true_(),
            &Params::default(),
        );
        // 2x2 cross of the key-2 groups
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r[0] == v(2) && r[1] == v(2)));
    }

    #[test]
    fn merge_join_equals_nl_join() {
        // differential: same inputs, same predicate, same result set
        let l_rows: Vec<Row> = (0..50).map(|i| vec![v(i % 7), v(i)]).collect();
        let r_rows: Vec<Row> = (0..30).map(|i| vec![v(i % 5), v(i * 10)]).collect();
        let pred = Predicate::atom(Atom::eq_cols(c(0), c(2)));
        let nl: Vec<Row> = nl_join(
            Box::new(l_rows.clone().into_iter()),
            r_rows.clone(),
            vec![c(0), c(1), c(2), c(3)],
            pred,
            Params::default(),
        )
        .collect();
        let mut l_sorted = l_rows;
        l_sorted.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        let mut r_sorted = r_rows;
        r_sorted.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        let mj = merge_join(
            &l_sorted,
            &[c(0), c(1)],
            &r_sorted,
            &[c(2), c(3)],
            &[c(0)],
            &[c(2)],
            &Predicate::true_(),
            &Params::default(),
        );
        let norm = |mut rows: Vec<Row>| {
            rows.sort_by(|a, b| {
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| x.sort_cmp(y))
                    .find(|o| *o != Ordering::Equal)
                    .unwrap_or(Ordering::Equal)
            });
            rows
        };
        assert_eq!(norm(nl), norm(mj));
    }

    #[test]
    fn indexed_join_probes_sorted_inner() {
        let mut inner = Table::new(
            vec![c(2), c(3)],
            vec![vec![v(1), v(10)], vec![v(2), v(20)], vec![v(2), v(21)]],
        );
        inner.sort_by(&[c(2)]);
        let outer = vec![vec![v(2)], vec![v(9)]];
        let got: Vec<Row> = indexed_nl_join(
            Box::new(outer.into_iter()),
            &[c(0)],
            Arc::new(inner),
            c(0),
            Predicate::true_(),
            Params::default(),
        )
        .collect();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|r| r[0] == v(2)));
    }

    #[test]
    fn sort_aggregate_groups_runs() {
        let out_col = c(9);
        let input = vec![vec![v(1), v(10)], vec![v(1), v(20)], vec![v(2), v(5)]];
        let aggs = vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(c(1)), out_col)];
        let out = sort_aggregate(&input, &[c(0), c(1)], &[c(0)], &aggs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0][0], v(1));
        assert_eq!(out[0][1].as_f64().unwrap(), 30.0);
        assert_eq!(out[1][1].as_f64().unwrap(), 5.0);
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let aggs = vec![AggExpr::new(AggFunc::Count, ScalarExpr::col(c(0)), c(9))];
        let out = sort_aggregate(&[], &[c(0)], &[], &aggs);
        assert_eq!(out, vec![vec![v(0)]]);
        // grouped aggregate over empty input: no groups
        let out = sort_aggregate(&[], &[c(0)], &[c(0)], &aggs);
        assert!(out.is_empty());
    }

    #[test]
    fn null_keys_never_join() {
        let left = vec![vec![Value::Null], vec![v(1)]];
        let right = vec![vec![Value::Null, v(0)], vec![v(1), v(10)]];
        let out = merge_join(
            &left,
            &[c(0)],
            &right,
            &[c(1), c(2)],
            &[c(0)],
            &[c(1)],
            &Predicate::true_(),
            &Params::default(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], v(1));
    }

    #[test]
    fn null_heavy_merge_join_skips_whole_groups() {
        // regression for the hoisted Null-key check: many Null left rows
        // against a large right duplicate group must contribute nothing,
        // and non-Null keys must still cross-product correctly
        let mut left: Vec<Row> = (0..40).map(|_| vec![Value::Null, v(-1)]).collect();
        left.extend((0..3).map(|i| vec![v(7), v(i)]));
        let mut right: Vec<Row> = (0..25).map(|i| vec![Value::Null, v(1000 + i)]).collect();
        right.extend((0..5).map(|i| vec![v(7), v(100 + i)]));
        left.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        right.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        let out = merge_join(
            &left,
            &[c(0), c(1)],
            &right,
            &[c(2), c(3)],
            &[c(0)],
            &[c(2)],
            &Predicate::true_(),
            &Params::default(),
        );
        // 3 left x 5 right rows with key 7; every Null pairing suppressed
        assert_eq!(out.len(), 15);
        assert!(out.iter().all(|r| r[0] == v(7) && r[2] == v(7)));
    }

    #[test]
    fn probe_bounds_from_predicates() {
        let p = Predicate::all(vec![
            Atom::cmp(c(0), CmpOp::Ge, 10i64),
            Atom::cmp(c(0), CmpOp::Lt, 20i64),
        ]);
        let (lo, hi) = probe_bounds(&p, c(0), &Params::default());
        assert_eq!(lo, Some(v(10)));
        assert_eq!(hi, Some(v(20))); // conservative: inclusive, recheck filters
        let eq = Predicate::atom(Atom::cmp(c(0), CmpOp::Eq, 7i64));
        let (lo, hi) = probe_bounds(&eq, c(0), &Params::default());
        assert_eq!((lo, hi), (Some(v(7)), Some(v(7))));
    }

    #[test]
    fn scan_streams_all_rows() {
        let t = table(vec![c(0)], vec![vec![v(1)], vec![v(2)]]);
        assert_eq!(scan(t).count(), 2);
    }

    #[test]
    fn project_reorders() {
        let rows = vec![vec![v(1), v(2)]];
        let got: Vec<Row> = project(Box::new(rows.into_iter()), &[c(0), c(1)], &[c(1)]).collect();
        assert_eq!(got, vec![vec![v(2)]]);
    }
}
