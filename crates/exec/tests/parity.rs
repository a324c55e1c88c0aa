//! Operator parity suite: every physical operator executed
//! row-at-a-time (`ops`) vs batched (`vops`) on randomized inputs must
//! produce **identical** result tables — schema, row order, cell values
//! compared strictly by variant (`Int(3)` ≠ `Float(3.0)` here, unlike
//! `Value::eq`), and SQL Null semantics — on inputs inside one batch and
//! across batch boundaries. An engine-level test pins the same
//! bit-for-bit agreement on whole extracted plans.

use mqo_catalog::{Catalog, ColId, ColStats, ColType, TableId};
use mqo_core::Optimizer;
use mqo_exec::ops::{self, Params};
use mqo_exec::{
    execute_plan_with, generate_database, normalize_result, try_execute_plan_seeded, vops, Cell,
    Column, ColumnData, Database, ExecMode, ExecOptions, ExecOutcome, Row, Table,
};
use mqo_expr::{AggExpr, AggFunc, Atom, CmpOp, Conjunct, ParamId, Predicate, ScalarExpr, Value};
use mqo_logical::{Batch, LogicalPlan, Query};
use mqo_physical::{Algo, ChosenOp, ExtractedPlan, PhysNodeId, PhysicalDag};
use mqo_util::FxHashMap;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---- strict comparison --------------------------------------------------

fn strict_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

fn rows_strict_eq(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| strict_eq(x, y))
}

/// Bit-level table identity: schema, sort metadata, row order, values.
fn tables_identical(a: &Table, b: &Table) -> bool {
    a.schema == b.schema
        && a.sorted_on == b.sorted_on
        && a.len() == b.len()
        && (0..a.len()).all(|i| rows_strict_eq(&a.row(i), &b.row(i)))
}

// ---- randomized inputs --------------------------------------------------

/// Column kind: 0 = Int, 1 = Float, 2 = Str, 3 = mixed types.
fn rand_value(rng: &mut StdRng, kind: u8) -> Value {
    if rng.random_range(0u32..5) == 0 {
        return Value::Null; // Null-heavy on purpose
    }
    let kind = if kind == 3 {
        rng.random_range(0u8..3)
    } else {
        kind
    };
    match kind {
        0 => Value::Int(rng.random_range(-3i64..6)),
        1 => Value::Float(rng.random_range(-4i64..5) as f64 * 0.5),
        _ => Value::str(&format!("s{}", rng.random_range(0u32..5))),
    }
}

/// A random table: `ncols` columns with ids `base..base+ncols`, kinds
/// drawn per column (first column's kind is forced to `key_kind` when
/// given, so joins and index probes actually match).
fn rand_table(
    rng: &mut StdRng,
    base: u32,
    ncols: usize,
    nrows: usize,
    key_kind: Option<u8>,
) -> (Table, Vec<u8>) {
    let kinds: Vec<u8> = (0..ncols)
        .map(|i| match (i, key_kind) {
            (0, Some(k)) => k,
            _ => rng.random_range(0u8..4),
        })
        .collect();
    let schema: Vec<ColId> = (0..ncols as u32).map(|i| ColId(base + i)).collect();
    let rows: Vec<Row> = (0..nrows)
        .map(|_| kinds.iter().map(|&k| rand_value(rng, k)).collect())
        .collect();
    (Table::new(schema, rows), kinds)
}

fn rand_op(rng: &mut StdRng) -> CmpOp {
    [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Eq,
        CmpOp::Ge,
        CmpOp::Gt,
        CmpOp::Ne,
    ][rng.random_range(0usize..6)]
}

fn rand_atom(rng: &mut StdRng, schema: &[ColId], kinds: &[u8]) -> Atom {
    let pick = rng.random_range(0u32..8);
    let ci = rng.random_range(0usize..schema.len());
    match pick {
        // col-col comparison (possibly cross-typed)
        0 | 1 => {
            let cj = rng.random_range(0usize..schema.len());
            Atom::col_cmp(schema[ci], rand_op(rng), schema[cj])
        }
        // parameter comparison (always bound as ParamId(0))
        2 => Atom::Param {
            col: schema[ci],
            op: rand_op(rng),
            param: ParamId(0),
        },
        // constant comparison; sometimes deliberately miss-typed or Null
        _ => {
            let kind = if rng.random_range(0u32..4) == 0 {
                3
            } else {
                kinds[ci]
            };
            Atom::cmp(schema[ci], rand_op(rng), rand_value(rng, kind))
        }
    }
}

fn rand_pred(rng: &mut StdRng, schema: &[ColId], kinds: &[u8]) -> Predicate {
    let n_disj = rng.random_range(1usize..3);
    let conjs: Vec<Conjunct> = (0..n_disj)
        .map(|_| {
            let n_atoms = rng.random_range(0usize..3);
            Conjunct::new(
                (0..n_atoms)
                    .map(|_| rand_atom(rng, schema, kinds))
                    .collect(),
            )
        })
        .collect();
    Predicate::any(conjs)
}

fn rand_params(rng: &mut StdRng) -> Params {
    let mut p = Params::default();
    let kind = rng.random_range(0u8..4);
    p.insert(ParamId(0), rand_value(rng, kind));
    p
}

// ---- row-path reference implementations (mirror the engine's arms) ------

fn row_filter(t: &Table, pred: &Predicate, params: &Params) -> Table {
    let schema = t.schema.clone();
    let rows = ops::filter(
        Box::new(t.rows()),
        schema.clone(),
        pred.clone(),
        params.clone(),
    )
    .collect();
    Table::new(schema, rows)
}

fn row_index_scan(t: &Table, pred: &Predicate, col: ColId, params: &Params) -> Table {
    let schema = t.schema.clone();
    let rows = ops::index_scan(
        std::sync::Arc::new(t.clone()),
        pred.clone(),
        col,
        params.clone(),
    )
    .collect();
    Table::new(schema, rows)
}

fn row_project(t: &Table, cols: &[ColId]) -> Table {
    let rows = ops::project(Box::new(t.rows()), &t.schema, cols).collect();
    Table::new(cols.to_vec(), rows)
}

fn row_nl_join(outer: &Table, inner: &Table, pred: &Predicate, params: &Params) -> Table {
    let mut schema = outer.schema.clone();
    schema.extend(inner.schema.iter().copied());
    let rows = ops::nl_join(
        Box::new(outer.rows()),
        inner.to_rows(),
        schema.clone(),
        pred.clone(),
        params.clone(),
    )
    .collect();
    Table::new(schema, rows)
}

#[allow(clippy::too_many_arguments)]
fn row_merge_join(
    left: &Table,
    right: &Table,
    lk: &[ColId],
    rk: &[ColId],
    residual: &Predicate,
    params: &Params,
) -> Table {
    let mut schema = left.schema.clone();
    schema.extend(right.schema.iter().copied());
    let rows = ops::merge_join(
        &left.to_rows(),
        &left.schema,
        &right.to_rows(),
        &right.schema,
        lk,
        rk,
        residual,
        params,
    );
    Table::new(schema, rows)
}

fn row_indexed_nl_join(
    outer: &Table,
    inner: &Table,
    key: ColId,
    residual: &Predicate,
    params: &Params,
) -> Table {
    let mut schema = outer.schema.clone();
    schema.extend(inner.schema.iter().copied());
    let rows = ops::indexed_nl_join(
        Box::new(outer.rows()),
        &outer.schema,
        std::sync::Arc::new(inner.clone()),
        key,
        residual.clone(),
        params.clone(),
    )
    .collect();
    Table::new(schema, rows)
}

fn row_sort_aggregate(t: &Table, keys: &[ColId], aggs: &[AggExpr]) -> Table {
    let rows = ops::sort_aggregate(&t.to_rows(), &t.schema, keys, aggs);
    let mut schema = keys.to_vec();
    schema.extend(aggs.iter().map(|a| a.output));
    Table::new(schema, rows)
}

// ---- the properties -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn filter_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (nc, nr) = (rng.random_range(1usize..4), rng.random_range(0usize..40));
        let (t, kinds) = rand_table(rng, 0, nc, nr, None);
        let pred = rand_pred(rng, &t.schema, &kinds);
        let params = rand_params(rng);
        let want = row_filter(&t, &pred, &params);
        let got = vops::filter(&t, &pred, &params);
        prop_assert!(tables_identical(&want, &got), "pred {pred}");
    }

    #[test]
    fn index_scan_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (nc, nr) = (rng.random_range(1usize..4), rng.random_range(0usize..40));
        let (mut t, kinds) = rand_table(rng, 0, nc, nr, Some(0));
        t.sort_by(&[t.schema[0]]);
        // a range atom on the clustering column plus random extras
        let mut atoms = vec![Atom::cmp(t.schema[0], rand_op(rng), rand_value(rng, 0))];
        if rng.random_range(0u32..2) == 0 {
            atoms.push(rand_atom(rng, &t.schema.clone(), &kinds));
        }
        let pred = Predicate::all(atoms);
        let params = rand_params(rng);
        let want = row_index_scan(&t, &pred, t.schema[0], &params);
        let got = vops::index_scan(&t, &pred, t.schema[0], &params);
        prop_assert!(tables_identical(&want, &got), "pred {pred}");
    }

    #[test]
    fn project_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (nc, nr) = (rng.random_range(2usize..5), rng.random_range(0usize..30));
        let (t, _) = rand_table(rng, 0, nc, nr, None);
        // random non-empty selection, possibly reordered
        let mut cols: Vec<ColId> = t.schema.clone();
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.random_range(0usize..i + 1));
        }
        cols.truncate(rng.random_range(1usize..=cols.len()));
        let want = row_project(&t, &cols);
        let got = vops::project(&t, None, &cols);
        prop_assert!(tables_identical(&want, &got));
    }

    #[test]
    fn nl_join_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (nc1, nr1) = (rng.random_range(1usize..3), rng.random_range(0usize..16));
        let (outer, mut kinds) = rand_table(rng, 0, nc1, nr1, None);
        let (nc2, nr2) = (rng.random_range(1usize..3), rng.random_range(0usize..16));
        let (inner, ik) = rand_table(rng, 10, nc2, nr2, None);
        let mut schema = outer.schema.clone();
        schema.extend(inner.schema.iter().copied());
        kinds.extend(ik);
        let pred = rand_pred(rng, &schema, &kinds);
        let params = rand_params(rng);
        let want = row_nl_join(&outer, &inner, &pred, &params);
        let got = vops::nl_join(&outer, &inner, &pred, &params);
        prop_assert!(tables_identical(&want, &got), "pred {pred}");
    }

    #[test]
    fn merge_join_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let key_kind = rng.random_range(0u8..3);
        let (nc1, nr1) = (rng.random_range(1usize..3), rng.random_range(0usize..24));
        let (mut left, mut kinds) = rand_table(rng, 0, nc1, nr1, Some(key_kind));
        let (nc2, nr2) = (rng.random_range(1usize..3), rng.random_range(0usize..24));
        let (mut right, rk_kinds) = rand_table(rng, 10, nc2, nr2, Some(key_kind));
        kinds.extend(rk_kinds);
        let (lk, rk) = (vec![left.schema[0]], vec![right.schema[0]]);
        left.sort_by(&lk);
        right.sort_by(&rk);
        let mut schema = left.schema.clone();
        schema.extend(right.schema.iter().copied());
        let residual = if rng.random_range(0u32..3) == 0 {
            Predicate::true_()
        } else {
            rand_pred(rng, &schema, &kinds)
        };
        let params = rand_params(rng);
        let want = row_merge_join(&left, &right, &lk, &rk, &residual, &params);
        let got = vops::merge_join(&left, &right, &lk, &rk, &residual, &params);
        prop_assert!(tables_identical(&want, &got), "residual {residual}");
    }

    #[test]
    fn indexed_nl_join_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let key_kind = rng.random_range(0u8..3);
        let (nc1, nr1) = (rng.random_range(1usize..3), rng.random_range(0usize..16));
        let (outer, mut kinds) = rand_table(rng, 0, nc1, nr1, Some(key_kind));
        let (nc2, nr2) = (rng.random_range(1usize..3), rng.random_range(0usize..24));
        let (mut inner, ik) = rand_table(rng, 10, nc2, nr2, Some(key_kind));
        kinds.extend(ik);
        inner.sort_by(&[inner.schema[0]]);
        let mut schema = outer.schema.clone();
        schema.extend(inner.schema.iter().copied());
        let residual = if rng.random_range(0u32..3) == 0 {
            Predicate::true_()
        } else {
            rand_pred(rng, &schema, &kinds)
        };
        let params = rand_params(rng);
        let want = row_indexed_nl_join(&outer, &inner, outer.schema[0], &residual, &params);
        let got = vops::indexed_nl_join(&outer, &inner, outer.schema[0], &residual, &params);
        prop_assert!(tables_identical(&want, &got), "residual {residual}");
    }

    #[test]
    fn sort_aggregate_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ncols = rng.random_range(1usize..4);
        let nr = rng.random_range(0usize..30);
        let (mut t, _) = rand_table(rng, 0, ncols, nr, None);
        let nkeys = rng.random_range(0usize..2.min(ncols) + 1).min(ncols);
        let keys: Vec<ColId> = t.schema[..nkeys].to_vec();
        if !keys.is_empty() {
            t.sort_by(&keys);
        }
        let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count];
        let aggs: Vec<AggExpr> = (0..rng.random_range(1usize..4))
            .map(|i| {
                let func = funcs[rng.random_range(0usize..4)];
                let arg_col = t.schema[rng.random_range(0usize..ncols)];
                let arg = if rng.random_range(0u32..4) == 0 {
                    ScalarExpr::col(arg_col)
                        .bin(mqo_expr::ArithOp::Add, ScalarExpr::constant(1i64))
                } else {
                    ScalarExpr::col(arg_col)
                };
                AggExpr::new(func, arg, ColId(90 + i as u32))
            })
            .collect();
        let want = row_sort_aggregate(&t, &keys, &aggs);
        let got = vops::sort_aggregate(&t, &keys, &aggs);
        prop_assert!(tables_identical(&want, &got));
    }
}

// ---- directed cases for the typed kernels --------------------------------

/// A two-column table `(key, tag)` with ids `base`, `base + 1`; the tag
/// is the row's position, so row order and stability show in the output.
fn keyed(base: u32, keys: Vec<Value>) -> Table {
    let rows = keys
        .into_iter()
        .enumerate()
        .map(|(i, k)| vec![k, Value::Int(i as i64)])
        .collect();
    Table::new(vec![ColId(base), ColId(base + 1)], rows)
}

/// (name, outer keys, inner keys, predicate, expected matches)
type EquiCase = (&'static str, Vec<Value>, Vec<Value>, Predicate, usize);

/// The hash probe's key equality must be exactly `cmp_maybe == Equal`,
/// and its output order exactly the loop's: every case is compared with
/// the row engine's quadratic join, and the match
/// counts that define the contract are pinned so no case is vacuous.
#[test]
fn nl_join_equi_key_semantics() {
    let i = Value::Int;
    let f = Value::Float;
    let s = Value::str;
    let (ok, ot, ik, it) = (ColId(0), ColId(1), ColId(10), ColId(11));
    let eq = || Predicate::atom(Atom::eq_cols(ok, ik));
    const BIG: i64 = 1 << 53;
    let cases: Vec<EquiCase> = vec![
        (
            "Null on either side never matches",
            vec![Value::Null, i(1)],
            vec![i(1), Value::Null, Value::Null],
            eq(),
            1,
        ),
        (
            "NaN equals nothing, itself included",
            vec![f(f64::NAN), f(1.0)],
            vec![f(f64::NAN), f(1.0)],
            eq(),
            1,
        ),
        (
            "-0.0 = 0.0 = Int(0)",
            vec![f(-0.0), f(0.0)],
            vec![f(0.0), f(-0.0), f(1.0)],
            eq(),
            4,
        ),
        (
            "Int(0) meets -0.0",
            vec![i(0)],
            vec![f(-0.0), f(0.0)],
            eq(),
            2,
        ),
        (
            "Int(3) = Float(3.0)",
            vec![i(3), i(4)],
            vec![f(3.0), f(3.5), f(4.0)],
            eq(),
            2,
        ),
        (
            "2^53 and 2^53+1 collide as the f64 comparison does",
            vec![i(BIG)],
            vec![i(BIG + 1), i(BIG), i(BIG + 2), i(-BIG)],
            eq(),
            2,
        ),
        (
            "string keys compare by bytes",
            vec![s("a"), s("b"), s("")],
            vec![s("b"), s("a"), s("c"), s("a"), s("A")],
            eq(),
            3,
        ),
        (
            "a string never equals a number",
            vec![s("1"), s("0")],
            vec![i(1), i(0)],
            eq(),
            0,
        ),
        (
            "mixed-type (Val) key columns go cell by cell",
            vec![i(1), s("x"), Value::Null, f(1.0)],
            vec![f(1.0), s("x"), i(1), Value::Null, s("1")],
            eq(),
            5,
        ),
        (
            "duplicate keys on both sides",
            vec![i(1), i(2), i(1), i(2)],
            vec![i(2), i(1), i(1), i(2), i(3)],
            eq(),
            8,
        ),
        ("empty outer", vec![], vec![i(1)], eq(), 0),
        ("empty inner", vec![i(1)], vec![], eq(), 0),
        (
            "all-Null outer",
            vec![Value::Null, Value::Null],
            vec![i(1)],
            eq(),
            0,
        ),
        (
            "equi atom + column and constant range residuals",
            vec![i(1), i(2), i(1)],
            vec![i(1), i(1), i(2), i(1), i(2)],
            Predicate::all(vec![
                Atom::eq_cols(ok, ik),
                Atom::col_cmp(ot, CmpOp::Lt, it),
                Atom::cmp(it, CmpOp::Ge, 1i64),
            ]),
            5,
        ),
        (
            "second equality is a residual of the first",
            vec![i(0), i(1), i(2)],
            vec![i(0), i(1), i(1), i(2)],
            Predicate::all(vec![Atom::eq_cols(ok, ik), Atom::eq_cols(ot, it)]),
            2,
        ),
        (
            "bound parameter in the residual",
            vec![i(1), i(1)],
            vec![i(1), i(1), i(1)],
            Predicate::all(vec![
                Atom::eq_cols(ok, ik),
                Atom::Param {
                    col: it,
                    op: CmpOp::Ne,
                    param: ParamId(0),
                },
            ]),
            4,
        ),
        (
            "two disjuncts fall back to the loop",
            vec![i(1), i(2), i(3)],
            vec![i(2), i(1), i(9)],
            Predicate::any(vec![
                Conjunct::new(vec![Atom::eq_cols(ok, ik)]),
                Conjunct::new(vec![Atom::cmp(ot, CmpOp::Eq, 2i64)]),
            ]),
            5,
        ),
        (
            "no outer=inner equality falls back to the loop",
            vec![i(1), i(2)],
            vec![i(1), i(2)],
            Predicate::all(vec![
                Atom::eq_cols(ok, ot),
                Atom::col_cmp(ok, CmpOp::Le, ik),
            ]),
            0,
        ),
    ];
    let mut params = Params::default();
    params.insert(ParamId(0), i(1));
    for (name, outer_keys, inner_keys, pred, matches) in cases {
        let (outer, inner) = (keyed(0, outer_keys), keyed(10, inner_keys));
        let want = row_nl_join(&outer, &inner, &pred, &params);
        assert_eq!(want.len(), matches, "{name}: oracle match count");
        let got = vops::nl_join(&outer, &inner, &pred, &params);
        assert!(tables_identical(&want, &got), "{name}");
    }

    // the atom written inner-column-first: the outer's ids are the
    // higher ones, so the canonical atom's `left` is the inner column
    let (outer, inner) = (
        keyed(20, vec![i(1), i(2), Value::Null]),
        keyed(10, vec![i(2), i(2), i(1)]),
    );
    let pred = Predicate::atom(Atom::eq_cols(ColId(20), ColId(10)));
    assert!(matches!(
        pred.disjuncts()[0].atoms(),
        [Atom::ColCmp {
            left: ColId(10),
            ..
        }]
    ));
    let want = row_nl_join(&outer, &inner, &pred, &params);
    assert_eq!(want.len(), 3);
    let got = vops::nl_join(&outer, &inner, &pred, &params);
    assert!(tables_identical(&want, &got), "inner-first atom");
}

/// 200 × 5 000 rows over a 40-value key domain (Nulls included): long
/// duplicate chains on the hashed side, long buckets per outer row, and
/// a residual that cuts each bucket — against the quadratic row join.
#[test]
fn nl_join_equi_duplicate_heavy_parity() {
    let rng = &mut StdRng::seed_from_u64(0x5EED_2000_0516);
    let mut keys = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| match rng.random_range(0i64..44) {
                k if k >= 40 => Value::Null,
                k => Value::Int(k - 20),
            })
            .collect()
    };
    let (outer, inner) = (keyed(0, keys(200)), keyed(10, keys(5_000)));
    let params = Params::default();
    for pred in [
        Predicate::atom(Atom::eq_cols(ColId(0), ColId(10))),
        Predicate::all(vec![
            Atom::eq_cols(ColId(0), ColId(10)),
            Atom::col_cmp(ColId(1), CmpOp::Lt, ColId(11)),
        ]),
    ] {
        let want = row_nl_join(&outer, &inner, &pred, &params);
        assert!(want.len() > 10_000, "duplicate-heavy by construction");
        let got = vops::nl_join(&outer, &inner, &pred, &params);
        assert!(tables_identical(&want, &got), "pred {pred}");
    }
}

/// `Table::sort_by`'s radix path for a single `Int` key against its
/// comparator path (reached by naming the key twice) and against a
/// stable row sort under `Value::sort_cmp`: negative, duplicate,
/// beyond-2^53 (which tie through `f64`) and Null keys, with stability
/// read off the tag column — and, past the proptests' sizes, 2 000 rows
/// at the `i64` extremes and ±2^53, all-equal keys (every radix pass
/// skipped), and already-sorted and reversed input.
#[test]
fn sort_by_typed_path_parity() {
    const BIG: i64 = 1 << 53;
    let i = Value::Int;
    let directed = vec![
        i(BIG + 1),
        i(BIG),
        i(-5),
        Value::Null,
        i(BIG + 1),
        i(i64::MIN),
        i(i64::MAX),
        i(0),
        i(-5),
        Value::Null,
        i(-BIG - 1),
        i(-BIG),
        i(BIG + 2),
    ];
    let rng = &mut StdRng::seed_from_u64(7);
    let mut inputs = vec![directed.clone(), Vec::new(), vec![Value::Null; 3]];
    inputs.push(directed.into_iter().filter(|v| *v != Value::Null).collect());
    for nullable in [false, true] {
        inputs.push(
            (0..300)
                .map(|_| match rng.random_range(0i64..12) {
                    0 if nullable => Value::Null,
                    1 => i(BIG + rng.random_range(0i64..4)),
                    _ => i(rng.random_range(-20i64..20)),
                })
                .collect(),
        );
    }
    inputs.push(
        (0..2_000)
            .map(|_| match rng.random_range(0i64..8) {
                0 => Value::Null,
                1 => i(i64::MIN),
                2 => i(i64::MAX),
                3 => i(BIG + rng.random_range(-2i64..3)),
                4 => i(-BIG + rng.random_range(-2i64..3)),
                _ => i(rng.random_range(-20i64..20)),
            })
            .collect(),
    );
    inputs.push(vec![i(7); 1_500]);
    inputs.push((0..1_500).map(i).collect());
    inputs.push((0..1_500).rev().map(i).collect());
    for keys in inputs {
        let t = keyed(0, keys);
        let key = t.schema[0];
        let mut want = t.to_rows();
        want.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        let (mut typed, mut compared) = (t.clone(), t.clone());
        typed.sort_by(&[key]);
        compared.sort_by(&[key, key]);
        assert_eq!(typed.sorted_on, vec![key]);
        for (r, w) in want.iter().enumerate() {
            assert!(rows_strict_eq(&typed.row(r), w), "typed path, row {r}");
            assert!(rows_strict_eq(&compared.row(r), w), "comparator, row {r}");
        }
    }
}

/// `n` keys from `draw`, each row its own draw.
fn draws(rng: &mut StdRng, n: usize, draw: fn(&mut StdRng) -> Value) -> Vec<Value> {
    (0..n).map(|_| draw(rng)).collect()
}

/// `keyed(base, keys)` sorted on its key column.
fn keyed_sorted(base: u32, keys: Vec<Value>) -> Table {
    let mut t = keyed(base, keys);
    t.sort_by(&[ColId(base)]);
    t
}

/// Every batched merge join of `left ⋈ right` on their key columns is
/// the row engine's, bit for bit; returns it.
fn merge_join_both_engines(left: &Table, right: &Table, residual: &Predicate) -> Table {
    let (lk, rk) = ([left.schema[0]], [right.schema[0]]);
    let params = Params::default();
    let want = row_merge_join(left, right, &lk, &rk, residual, &params);
    let got = vops::merge_join(left, right, &lk, &rk, residual, &params);
    assert!(tables_identical(&want, &got), "{residual}");
    want
}

/// `normalize_result` of both tables, compared by variant and bits.
fn same_rows(a: &Table, b: &Table) -> bool {
    let (a, b) = (normalize_result(a), normalize_result(b));
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| rows_strict_eq(x, y))
}

/// The typed merge join (one `Int` key a side, compared as key images)
/// against the row engine past the proptests' sizes: 1 500 × 1 200 rows
/// over a 40-value domain, Null keys on both sides, with and without a
/// residual that cuts each group.
#[test]
fn merge_join_typed_key_duplicate_heavy_parity() {
    let rng = &mut StdRng::seed_from_u64(0x5EED_2015_0831);
    let key = |rng: &mut StdRng| match rng.random_range(0i64..44) {
        k if k >= 40 => Value::Null,
        k => Value::Int(k - 20),
    };
    let left = keyed_sorted(0, draws(rng, 1_500, key));
    let right = keyed_sorted(10, draws(rng, 1_200, key));
    assert!(left.col(0).is_null(0) && right.col(0).is_null(0));
    for residual in [
        Predicate::true_(),
        Predicate::atom(Atom::col_cmp(ColId(1), CmpOp::Lt, ColId(11))),
    ] {
        let out = merge_join_both_engines(&left, &right, &residual);
        assert!(out.len() > 10_000, "duplicate-heavy by construction");
        assert!((0..out.len()).all(|r| !out.col(0).is_null(r)));
    }
}

/// An `Int` key against a `Float` key has no shared key image, so both
/// joins take the cell path — and still meet `Int(3)` with `Float(3.0)`,
/// never with `Float(3.5)`, NaN or Null: the merge join agrees with the
/// row engine, the hash join with the row loop, and the two joins with
/// each other.
#[test]
fn int_against_float_keys_join_through_the_cell_path() {
    let rng = &mut StdRng::seed_from_u64(3);
    let int_key = |rng: &mut StdRng| match rng.random_range(0i64..24) {
        0 => Value::Null,
        k => Value::Int(k % 12),
    };
    let float_key = |rng: &mut StdRng| match rng.random_range(0i64..26) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        k => Value::Float((k % 12) as f64 + if k >= 14 { 0.5 } else { 0.0 }),
    };
    let (ints, floats) = (draws(rng, 1_000, int_key), draws(rng, 1_000, float_key));
    let merged = merge_join_both_engines(
        &keyed_sorted(0, ints.clone()),
        &keyed_sorted(10, floats.clone()),
        &Predicate::true_(),
    );
    let (outer, inner) = (keyed(0, ints[..200].to_vec()), keyed(10, floats));
    let pred = Predicate::atom(Atom::eq_cols(ColId(0), ColId(10)));
    let params = Params::default();
    let looped = row_nl_join(&outer, &inner, &pred, &params);
    let hashed = vops::nl_join(&outer, &inner, &pred, &params);
    assert!(tables_identical(&looped, &hashed), "nl_join");
    for out in [&merged, &looped] {
        assert!(out.len() > 1_000);
        let threes: Vec<Value> = (0..out.len())
            .filter(|&r| out.col(0).get(r) == Value::Int(3))
            .map(|r| out.col(2).get(r))
            .collect();
        assert!(!threes.is_empty());
        assert!(threes
            .iter()
            .all(|v| matches!(v, Value::Float(x) if *x == 3.0)));
    }
    let full = keyed(0, ints);
    let whole = row_nl_join(&full, &inner, &pred, &params);
    assert!(same_rows(&merged, &whole), "merge join = equi nested loops");
}

/// Regression: the merge join grouped keys by `sort_cmp`, under which
/// NaN equals NaN, so it joined NaN keys that the hash probe and the
/// predicate (`cmp_maybe`) never join — the rows returned depended on
/// the join the optimizer picked. Both engines' `MergeJoin` and both
/// engines' equi `NestLoopsJoin` must return the same rows over `Float`
/// keys with NaNs, duplicates and Nulls on both sides. (`-0.0` against
/// `0.0` is the one documented difference and is left out.)
#[test]
fn merge_join_matches_equi_nl_join_on_nan_keys() {
    let f = Value::Float;
    let nan = || f(f64::NAN);
    let left = vec![nan(), f(1.0), Value::Null, nan(), f(2.5), f(1.0), f(3.0)];
    let right = vec![f(2.5), nan(), f(1.0), Value::Null, f(2.5), nan(), f(4.0)];
    let merged = merge_join_both_engines(
        &keyed_sorted(0, left.clone()),
        &keyed_sorted(10, right.clone()),
        &Predicate::true_(),
    );
    let (outer, inner) = (keyed(0, left), keyed(10, right));
    let pred = Predicate::atom(Atom::eq_cols(ColId(0), ColId(10)));
    let params = Params::default();
    let looped = row_nl_join(&outer, &inner, &pred, &params);
    assert_eq!(looped.len(), 4, "1.0 × 2·1 and 2.5 × 1·2");
    let hashed = vops::nl_join(&outer, &inner, &pred, &params);
    assert!(same_rows(&looped, &hashed), "nl_join");
    assert!(
        same_rows(&merged, &looped),
        "merge join = equi nested loops"
    );
}

/// The batched sort aggregate finds a single `Int` key's groups by key
/// image equality: 1 200 sorted rows with Nulls, the `i64` extremes and
/// keys beyond 2^53 (which group together through `f64`, as the row
/// engine's `sort_cmp` does), against the row engine.
#[test]
fn sort_aggregate_int_key_parity() {
    const BIG: i64 = 1 << 53;
    let rng = &mut StdRng::seed_from_u64(11);
    let key = |rng: &mut StdRng| match rng.random_range(0i64..10) {
        0 => Value::Null,
        1 => Value::Int(i64::MIN),
        2 => Value::Int(i64::MAX - rng.random_range(0i64..2)),
        3 => Value::Int(BIG + rng.random_range(0i64..3)),
        _ => Value::Int(rng.random_range(-30i64..30)),
    };
    let t = keyed_sorted(0, draws(rng, 1_200, key));
    let tag = || ScalarExpr::col(ColId(1));
    let aggs = [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max]
        .into_iter()
        .enumerate()
        .map(|(i, func)| AggExpr::new(func, tag(), ColId(90 + i as u32)))
        .collect::<Vec<_>>();
    let want = row_sort_aggregate(&t, &[ColId(0)], &aggs);
    assert!(want.len() > 60, "every group present");
    assert!(tables_identical(
        &want,
        &vops::sort_aggregate(&t, &[ColId(0)], &aggs)
    ));
}

/// `n` rows `(key, tag, val)` with ids `base..base + 3`: `key` is `Int`,
/// 0 on about half the rows (one hot key) and Null on a tenth; `tag` is
/// the row's position; `val` is a `Float` with NaN and Null cells.
fn hot_keyed(rng: &mut StdRng, base: u32, n: usize) -> Table {
    let rows = (0..n)
        .map(|r| {
            let key = match rng.random_range(0i64..20) {
                0..=9 => Value::Int(0),
                10 | 11 => Value::Null,
                _ => Value::Int(rng.random_range(1i64..500)),
            };
            let val = match rng.random_range(0i64..10) {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                _ => Value::Float(rng.random_range(-10i64..10) as f64 * 0.5),
            };
            vec![key, Value::Int(r as i64), val]
        })
        .collect();
    Table::new((base..base + 3).map(ColId).collect(), rows)
}

/// Every vectorized operator that evaluates in 1 024-row chunks —
/// the selections over their input, the joins over one outer row's
/// candidates — against the row engine on 2 500-row inputs: two full
/// chunks and a partial one, where the hot key gives one outer row
/// more than 1 024 candidates and every residual cuts them, over Null
/// and NaN cells on both sides.
#[test]
fn chunk_boundaries_parity() {
    let rng = &mut StdRng::seed_from_u64(0x5EED_1024);
    let (ok, ov) = (ColId(0), ColId(2));
    let (ik, iv) = (ColId(10), ColId(12));
    let mut params = Params::default();
    params.insert(ParamId(0), Value::Float(1.0));

    let mut t = hot_keyed(rng, 10, 2_500);
    let pred = Predicate::any(vec![
        Conjunct::new(vec![
            Atom::cmp(iv, CmpOp::Lt, 1.0),
            Atom::cmp(ik, CmpOp::Ne, 0i64),
        ]),
        Conjunct::new(vec![Atom::Param {
            col: iv,
            op: CmpOp::Ge,
            param: ParamId(0),
        }]),
    ]);
    let want = row_filter(&t, &pred, &params);
    assert!(want.len() > 1_024 && want.len() < t.len());
    assert!(tables_identical(&want, &vops::filter(&t, &pred, &params)));
    t.sort_by(&[ik]);
    let pred = Predicate::all(vec![
        Atom::cmp(ik, CmpOp::Ge, 0i64),
        Atom::cmp(ik, CmpOp::Le, 250i64),
        Atom::cmp(iv, CmpOp::Ne, 0.5),
    ]);
    let want = row_index_scan(&t, &pred, ik, &params);
    assert!(want.len() > 1_024);
    let got = vops::index_scan(&t, &pred, ik, &params);
    assert!(tables_identical(&want, &got), "index scan");

    // `t` is the inner, sorted on its key, and holds > 1 024 hot rows
    let hot = (0..t.len()).filter(|&r| t.col(0).get(r) == Value::Int(0));
    assert!(hot.count() > 1_024);
    let mut outer = hot_keyed(rng, 0, 40);
    assert!((0..outer.len()).any(|r| outer.col(0).get(r) == Value::Int(0)));
    let residual = Predicate::all(vec![Atom::col_cmp(ov, CmpOp::Le, iv)]);
    let equi = Predicate::all(vec![
        Atom::eq_cols(ok, ik),
        Atom::col_cmp(ov, CmpOp::Le, iv),
    ]);
    for pred in [&residual, &equi] {
        let want = row_nl_join(&outer, &t, pred, &params);
        assert!(want.len() > 1_024, "{pred}");
        let got = vops::nl_join(&outer, &t, pred, &params);
        assert!(tables_identical(&want, &got), "nl join: {pred}");
    }
    let want = row_indexed_nl_join(&outer, &t, ok, &residual, &params);
    assert!(want.len() > 1_024);
    let got = vops::indexed_nl_join(&outer, &t, ok, &residual, &params);
    assert!(tables_identical(&want, &got), "indexed nl join");
    outer.sort_by(&[ok]);
    let (lk, rk) = ([ok], [ik]);
    let want = row_merge_join(&outer, &t, &lk, &rk, &residual, &params);
    assert!(want.len() > 1_024);
    let got = vops::merge_join(&outer, &t, &lk, &rk, &residual, &params);
    assert!(tables_identical(&want, &got), "merge join");
}

// ---- the typed selection and hash-probe kernels ------------------------

const OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Eq,
    CmpOp::Ge,
    CmpOp::Gt,
    CmpOp::Ne,
];

/// The edge values of each column kind the typed kernels special-case:
/// the `i64` extremes, ±2^53 and 2^53 + 1 (which ties 2^53 through
/// `f64`), NaN, ±0.0, infinities and the empty string.
fn edge_values(kind: u8) -> Vec<Value> {
    const BIG: i64 = 1 << 53;
    match kind {
        0 => [i64::MIN, -BIG, -1, 0, 1, BIG, BIG + 1, i64::MAX]
            .map(Value::Int)
            .to_vec(),
        1 => [
            f64::NAN,
            f64::NEG_INFINITY,
            -(BIG as f64),
            -0.0,
            0.0,
            0.5,
            BIG as f64,
            f64::INFINITY,
        ]
        .map(Value::Float)
        .to_vec(),
        _ => ["", "a", "ab", "b", "\u{e9}"].map(Value::str).to_vec(),
    }
}

/// `n` rows cycling through `pool` from `phase`, every seventh row Null
/// when `nulls`.
fn edge_column(pool: &[Value], n: usize, phase: usize, nulls: bool) -> Vec<Value> {
    (0..n)
        .map(|r| match r % 7 == 3 && nulls {
            true => Value::Null,
            false => pool[(r + phase) % pool.len()].clone(),
        })
        .collect()
}

/// Every `CmpOp` of an `Int`, `Float` or `Str` column, with and without
/// Nulls, against every edge constant of every kind (and Null): the
/// typed kernel keeps exactly the rows `Cell::cmp_maybe` + `op.matches`
/// keeps, from a full and from a gapped selection, at 1 023, 1 024 and
/// 1 025 rows; and the filter is the row engine's, bit for bit.
#[test]
fn typed_selection_kernels_parity() {
    let consts: Vec<Value> = (0..3).flat_map(edge_values).chain([Value::Null]).collect();
    let params = Params::default();
    let mut kept = 0usize;
    for kind in 0..3u8 {
        for nulls in [false, true] {
            for n in [1_023, 1_024, 1_025] {
                let values = edge_column(&edge_values(kind), n, n, nulls);
                let t = Table::new(
                    vec![ColId(0)],
                    values.into_iter().map(|v| vec![v]).collect(),
                );
                let col = t.col(0);
                for op in OPS {
                    for v in &consts {
                        let reference = |sel: &[u32]| -> Vec<u32> {
                            sel.iter()
                                .copied()
                                .filter(|&i| {
                                    col.cell(i as usize)
                                        .cmp_maybe(Cell::of(v))
                                        .is_some_and(|o| op.matches(o))
                                })
                                .collect()
                        };
                        for sel in [
                            (0..n as u32).collect::<Vec<_>>(),
                            (1..n as u32).step_by(3).collect(),
                        ] {
                            let want = reference(&sel);
                            let mut got = sel;
                            col.refine_cmp_value(op, v, &mut got);
                            assert_eq!(
                                got, want,
                                "kind {kind}, nulls {nulls}, n {n}: x {op:?} {v}"
                            );
                            kept += got.len();
                        }
                        let pred = Predicate::atom(Atom::cmp(ColId(0), op, v.clone()));
                        let want = row_filter(&t, &pred, &params);
                        let got = vops::filter(&t, &pred, &params);
                        assert!(tables_identical(&want, &got), "kind {kind}, n {n}: {pred}");
                    }
                }
            }
        }
    }
    assert!(kept > 100_000, "the cases keep rows: {kept}");
}

/// The `Int`/`Int` column-column kernel, with and without Nulls on
/// either side, against `Cell::cmp_maybe` + `op.matches` and the row
/// engine, across a chunk boundary.
#[test]
fn typed_column_column_kernel_parity() {
    let pool = edge_values(0);
    let params = Params::default();
    for (a_nulls, b_nulls) in [(false, false), (true, false), (false, true), (true, true)] {
        let a = edge_column(&pool, 1_025, 0, a_nulls);
        // a different phase (and Null rows offset by one) pairs every
        // value with every other
        let mut b = edge_column(&pool, 1_026, 3, b_nulls);
        b.remove(0);
        let t = Table::new(
            vec![ColId(0), ColId(1)],
            a.into_iter().zip(b).map(|(x, y)| vec![x, y]).collect(),
        );
        let (x, y) = (t.col(0), t.col(1));
        for op in OPS {
            let mut got: Vec<u32> = (0..t.len() as u32).collect();
            x.refine_cmp_col(op, y, &mut got);
            let want: Vec<u32> = (0..t.len() as u32)
                .filter(|&i| {
                    let i = i as usize;
                    x.cell(i)
                        .cmp_maybe(y.cell(i))
                        .is_some_and(|o| op.matches(o))
                })
                .collect();
            assert_eq!(got, want, "nulls {a_nulls}/{b_nulls}: {op:?}");
            let pred = Predicate::atom(Atom::col_cmp(ColId(0), op, ColId(1)));
            let want = row_filter(&t, &pred, &params);
            assert!(!want.is_empty() || op == CmpOp::Eq, "{op:?}");
            assert!(
                tables_identical(&want, &vops::filter(&t, &pred, &params)),
                "{pred}"
            );
        }
    }
}

/// `keyed(base, keys)` with its key column in the mixed-type `Val`
/// representation, which takes the hash join's `JoinKey` cell path
/// whatever the keys are.
fn keyed_val(base: u32, keys: Vec<Value>) -> Table {
    let n = keys.len() as u32;
    let t = keyed(base, keys.clone());
    // a string then a number degrade the column; gathering keeps `Val`
    let mixed = [Value::str("x"), Value::Int(0)].into_iter().chain(keys);
    let key = Column::from_values(mixed).gather(&(2..n + 2).collect::<Vec<_>>());
    assert!(matches!(key.data(), ColumnData::Val(_)));
    Table::from_columns(t.schema.clone(), vec![key, t.col(1).clone()])
}

/// (name, outer keys, inner keys, the expected match count's test)
type JoinCase = (&'static str, Vec<Value>, Vec<Value>, fn(usize) -> bool);

/// The `u64` image path of the hash join (splitmix64 table behind a
/// prefilter) against the `JoinKey` cell path over the same keys held
/// as `Val` columns, and both against the row engine: all-miss,
/// all-hit, duplicate-heavy and all-Null outers, and edge keys.
#[test]
fn nl_join_image_path_equals_cell_path() {
    let rng = &mut StdRng::seed_from_u64(0x5EED_2015_0831);
    let ints = |keys: Vec<i64>| keys.into_iter().map(Value::Int).collect::<Vec<_>>();
    let mut draw = |n: usize, lo: i64, hi: i64| -> Vec<Value> {
        (0..n)
            .map(|_| Value::Int(rng.random_range(lo..hi)))
            .collect()
    };
    let cases: Vec<JoinCase> = vec![
        (
            "all-miss",
            draw(300, 0, 1_000),
            draw(3_000, 1_000, 9_000),
            |m| m == 0,
        ),
        (
            "all-hit",
            ints((0..100).collect()),
            draw(3_000, 0, 100),
            |m| m == 3_000,
        ),
        ("duplicate-heavy", draw(400, 0, 8), draw(2_000, 0, 8), |m| {
            m > 50_000
        }),
        (
            "all-Null outer",
            vec![Value::Null; 50],
            draw(2_000, 0, 8),
            |m| m == 0,
        ),
        (
            "edge keys",
            edge_column(&edge_values(0), 64, 0, true),
            edge_column(&edge_values(0), 1_100, 5, true),
            |m| m > 0,
        ),
    ];
    let pred = Predicate::atom(Atom::eq_cols(ColId(0), ColId(10)));
    let params = Params::default();
    for (name, outer_keys, inner_keys, expect) in cases {
        let (outer, inner) = (keyed(0, outer_keys.clone()), keyed(10, inner_keys.clone()));
        let want = row_nl_join(&outer, &inner, &pred, &params);
        assert!(expect(want.len()), "{name}: {} matches", want.len());
        let images = vops::nl_join(&outer, &inner, &pred, &params);
        assert!(tables_identical(&want, &images), "{name}: image path");
        let (vo, vi) = (keyed_val(0, outer_keys), keyed_val(10, inner_keys));
        for (o, i, path) in [
            (&vo, &vi, "Val ⋈ Val"),
            (&outer, &vi, "Int ⋈ Val"),
            (&vo, &inner, "Val ⋈ Int"),
        ] {
            let cells = vops::nl_join(o, i, &pred, &params);
            assert!(tables_identical(&images, &cells), "{name}: {path}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The prefilter never drops a match: over random `Int` keys (Nulls
    /// and 2^53 ties included, domains from dense to sparse), the image
    /// path's (outer, inner) pairs are exactly those of a `BTreeMap`
    /// grouping the inner rows by the `f64` the comparison widens to.
    #[test]
    fn hash_prefilter_never_drops_a_match(seed in any::<u64>()) {
        const BIG: i64 = 1 << 53;
        let rng = &mut StdRng::seed_from_u64(seed);
        let domain = [4i64, 64, 4_096, 1 << 20][rng.random_range(0usize..4)];
        let (n_outer, n_inner) = (rng.random_range(0usize..600), rng.random_range(0usize..3_000));
        let mut keys = |n: usize| -> Vec<Value> {
            (0..n)
                .map(|_| match rng.random_range(0u32..20) {
                    0 => Value::Null,
                    1 => Value::Int(BIG + rng.random_range(-2i64..3)),
                    _ => Value::Int(rng.random_range(-domain..domain)),
                })
                .collect()
        };
        let (outer, inner) = (keyed(0, keys(n_outer)), keyed(10, keys(n_inner)));
        let mut groups: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for r in 0..inner.len() {
            if let Value::Int(k) = inner.col(0).get(r) {
                groups.entry((k as f64).to_bits()).or_default().push(r as u32);
            }
        }
        let mut want = Vec::new();
        for o in 0..outer.len() {
            if let Value::Int(k) = outer.col(0).get(o) {
                let bucket = groups.get(&(k as f64).to_bits()).map_or(&[][..], Vec::as_slice);
                want.extend(bucket.iter().map(|&r| (o as i64, i64::from(r))));
            }
        }
        let pred = Predicate::atom(Atom::eq_cols(ColId(0), ColId(10)));
        let got = vops::nl_join(&outer, &inner, &pred, &Params::default());
        let tag = |p: usize, r: usize| got.col(p).get(r).as_i64().unwrap();
        let pairs: Vec<(i64, i64)> = (0..got.len()).map(|r| (tag(1, r), tag(3, r))).collect();
        prop_assert_eq!(pairs, want);
    }
}

// ---- engine-level parity ------------------------------------------------

/// Star-schema batch exercising scans, index selects, both join
/// algorithms, filters, projections, and a grouped aggregate.
fn star() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    let dim = cat
        .table("dim")
        .rows(200.0)
        .int_key("dk")
        .int_uniform("dcat", 0, 9)
        .clustered_on_first()
        .build();
    let fact = cat
        .table("fact")
        .rows(5_000.0)
        .int_key("fk")
        .int_uniform("dfk", 0, 199)
        .int_uniform("val", 0, 99)
        .clustered_on_first()
        .build();
    let other = cat
        .table("other")
        .rows(300.0)
        .int_key("ok")
        .int_uniform("ocat", 0, 9)
        .clustered_on_first()
        .build();
    let dk = cat.col("dim", "dk");
    let dcat = cat.col("dim", "dcat");
    let dfk = cat.col("fact", "dfk");
    let val = cat.col("fact", "val");
    let ok = cat.col("other", "ok");
    let ocat = cat.col("other", "ocat");
    let sum1 = cat.derived_column("sum1", ColType::Float, ColStats::opaque(10.0));
    let join_df = Predicate::atom(Atom::eq_cols(dk, dfk));
    let q1 = LogicalPlan::scan(dim)
        .join(LogicalPlan::scan(fact), join_df.clone())
        .aggregate(
            vec![dcat],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(val), sum1)],
        );
    let q2 = LogicalPlan::scan(dim)
        .join(LogicalPlan::scan(fact), join_df)
        .select(Predicate::atom(Atom::cmp(val, CmpOp::Ge, 50i64)))
        .join(
            LogicalPlan::scan(other),
            Predicate::atom(Atom::eq_cols(dcat, ocat)),
        )
        .project(vec![dcat, val, ok]);
    (
        cat,
        Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
    )
}

/// Executes `plan` on the row engine and on the vectorized engine,
/// requires bit-identical outcomes, and returns the vectorized one.
fn assert_modes_agree(
    cat: &Catalog,
    pdag: &PhysicalDag,
    plan: &ExtractedPlan,
    db: &Database,
    label: &str,
) -> ExecOutcome {
    let params = FxHashMap::default();
    let run = |mode| {
        let exec = ExecOptions {
            mode,
            ..ExecOptions::default()
        };
        execute_plan_with(cat, pdag, plan, db, &params, exec)
    };
    let (row, vec) = (run(ExecMode::Row), run(ExecMode::Vectorized));
    assert_eq!(row.temps_built, vec.temps_built, "{label}");
    assert_eq!(row.rows_out, vec.rows_out, "{label}");
    assert_eq!(row.results.len(), vec.results.len());
    for (qi, (a, v)) in row.results.iter().zip(&vec.results).enumerate() {
        assert!(tables_identical(a, v), "{label}: query {qi} diverged");
    }
    vec
}

#[test]
fn engine_modes_agree_bit_for_bit() {
    let (cat, batch) = star();
    let db = generate_database(&cat, 777, usize::MAX);
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    for name in ["Volcano", "Greedy"] {
        let r = optimizer.search(&ctx, name).unwrap();
        assert_modes_agree(&cat, &ctx.pdag, &r.plan, &db, name);
    }
}

// ---- selections pipelined into their projection -------------------------

/// `t(k, u, v, pad)`, clustered on the key `k`, with a string `pad`
/// column like lineitem's.
fn pipelined_catalog() -> (Catalog, TableId) {
    let mut cat = Catalog::new();
    let t = cat
        .table("t")
        .rows(400.0)
        .int_key("k")
        .int_uniform("u", 0, 9)
        .int_uniform("v", -5, 5)
        .column("pad", ColType::Str(16), ColStats::opaque(12.0))
        .clustered_on_first()
        .build();
    (cat, t)
}

/// The Volcano plan of the single query `π_cols σ_pred t`.
fn project_of_select(
    cat: &Catalog,
    t: TableId,
    pred: Predicate,
    cols: Vec<ColId>,
) -> (PhysicalDag, ExtractedPlan) {
    let q = LogicalPlan::scan(t).select(pred).project(cols);
    let batch = Batch::of(vec![Query::new("q", q)]);
    let optimizer = Optimizer::new(cat);
    let ctx = optimizer.prepare(&batch);
    let plan = optimizer.search(&ctx, "Volcano").unwrap().plan;
    (ctx.pdag, plan)
}

/// The node and algorithm name of the selection the plan's `Project`
/// reads directly, if it reads one.
fn selection_under_project(
    pdag: &PhysicalDag,
    plan: &ExtractedPlan,
) -> Option<(PhysNodeId, &'static str)> {
    let op_of = |n: &PhysNodeId| match plan.choices.get(n)? {
        ChosenOp::Compute(o) => Some(pdag.op(*o)),
        ChosenOp::Reuse(_) => None,
    };
    plan.choices.keys().find_map(|n| {
        let Algo::Project { .. } = op_of(n)?.algo else {
            return None;
        };
        let input = op_of(n)?.inputs[0];
        match op_of(&input)?.algo {
            Algo::Filter { .. } => Some((input, "Filter")),
            Algo::IndexedSelect { .. } => Some((input, "IndexedSelect")),
            _ => None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// `Project∘Filter` and `Project∘IndexedSelect` on randomized
    /// predicates (disjunctions, the clustering column or not, the
    /// string column) and randomized projections (reordered, possibly
    /// empty, possibly every column).
    #[test]
    fn pipelined_selection_parity(seed in any::<u64>()) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (cat, t) = pipelined_catalog();
        let db = generate_database(&cat, seed, usize::MAX);
        let schema = db.table(t).schema.clone();
        let pads = db.table(t).col_arc(3);
        let atom = |rng: &mut StdRng| {
            let c = rng.random_range(0usize..4);
            let val = match c {
                0 => Value::Int(rng.random_range(-10i64..410)),
                3 => pads.get(rng.random_range(0usize..pads.len())),
                _ => Value::Int(rng.random_range(-6i64..11)),
            };
            Atom::cmp(schema[c], rand_op(rng), val)
        };
        let conjuncts = (0..rng.random_range(1usize..3))
            .map(|_| Conjunct::new((0..rng.random_range(1usize..3)).map(|_| atom(rng)).collect()))
            .collect();
        let pred = Predicate::any(conjuncts);
        let mut cols = schema.clone();
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.random_range(0usize..i + 1));
        }
        cols.truncate(rng.random_range(0usize..=cols.len()));
        let (pdag, plan) = project_of_select(&cat, t, pred.clone(), cols);
        let shape = selection_under_project(&pdag, &plan).map(|(_, s)| s);
        assert_modes_agree(&cat, &pdag, &plan, &db, &format!("{shape:?}: {pred}"));
    }
}

/// The edges of the pipelined path, each on both selection operators:
/// every row passes (the projection stays zero-copy), no row passes,
/// the projection keeps every column, and an empty projection keeps
/// its row count.
#[test]
fn pipelined_selection_edge_cases() {
    let (cat, t) = pipelined_catalog();
    let db = generate_database(&cat, 2000, usize::MAX);
    let base = db.table(t);
    let [k, u, v, pad] = [0, 1, 2, 3].map(|p| base.schema[p]);
    let all = base.len();
    let v_neg = (0..all)
        .filter(|&r| matches!(base.col(2).get(r), Value::Int(x) if x < 0))
        .count();
    assert!(0 < v_neg && v_neg < all, "the v < 0 case must cut");
    let ge = |c, x: i64| Predicate::atom(Atom::cmp(c, CmpOp::Ge, x));
    let cases = [
        ("every row, Filter", ge(u, 0), vec![pad, u], "Filter", all),
        (
            "every row, index",
            ge(k, 0),
            vec![pad, k],
            "IndexedSelect",
            all,
        ),
        ("no row, Filter", ge(u, 100), vec![u], "Filter", 0),
        ("no row, index", ge(k, 1000), vec![u], "IndexedSelect", 0),
        (
            "every column",
            Predicate::atom(Atom::cmp(v, CmpOp::Lt, 0i64)),
            vec![k, u, v, pad],
            "Filter",
            v_neg,
        ),
        (
            "no column, Filter",
            Predicate::atom(Atom::cmp(v, CmpOp::Lt, 0i64)),
            vec![],
            "Filter",
            v_neg,
        ),
        ("no column, index", ge(k, 100), vec![], "IndexedSelect", 300),
    ];
    for (name, pred, cols, shape, rows) in cases {
        let (pdag, plan) = project_of_select(&cat, t, pred, cols.clone());
        let found = selection_under_project(&pdag, &plan).map(|(_, s)| s);
        assert_eq!(found, Some(shape), "{name}: plan shape");
        let out = assert_modes_agree(&cat, &pdag, &plan, &db, name);
        let result = &out.results[0];
        // the DAG canonicalizes a projection's column order
        let mut want = cols;
        want.sort_unstable();
        assert_eq!((result.len(), &result.schema), (rows, &want), "{name}");
        if rows == all {
            for (i, &c) in result.schema.iter().enumerate() {
                assert!(
                    Arc::ptr_eq(&result.col_arc(i), &base.col_arc(base.col_pos(c))),
                    "{name}: column {c} was copied, not shared"
                );
            }
        }
    }
}

/// A Filter the plan materializes is built once, over its whole schema,
/// and the Project above it reads that temp: the projected columns are
/// the temp's own, not a second filtering of the base table.
#[test]
fn materialized_filter_is_read_not_refiltered() {
    let (cat, t) = pipelined_catalog();
    let db = generate_database(&cat, 2000, usize::MAX);
    let [u, v] = [1, 2].map(|p| db.table(t).schema[p]);
    let pred = Predicate::atom(Atom::cmp(v, CmpOp::Lt, 0i64));
    let (pdag, mut plan) = project_of_select(&cat, t, pred, vec![u]);
    let (filter, _) = selection_under_project(&pdag, &plan).expect("π over a Filter");
    plan.materialized.push(filter);
    let out = assert_modes_agree(&cat, &pdag, &plan, &db, "materialized Filter");
    assert_eq!(out.temps_built, 1);
    let seeded = try_execute_plan_seeded(
        &cat,
        &pdag,
        &plan,
        &db,
        &FxHashMap::default(),
        ExecOptions::default(),
        &FxHashMap::default(),
    )
    .expect("a well-formed cold plan executes");
    let [(built, temp)] = &seeded.built_temps[..] else {
        panic!("exactly one temp")
    };
    assert_eq!(*built, filter);
    assert_eq!(temp.schema, db.table(t).schema, "temp gathers every column");
    let result = &seeded.outcome.results[0];
    assert!(Arc::ptr_eq(
        &result.col_arc(0),
        &temp.col_arc(temp.col_pos(u))
    ));
}

#[test]
fn exec_options_env_defaults_are_sane() {
    // from_env must honor whatever the CI matrix sets, and fall back to
    // the vectorized path
    let opts = ExecOptions::from_env();
    if std::env::var("MQO_EXEC_MODE").is_err() {
        assert_eq!(opts.mode, ExecMode::Vectorized);
    }
}
