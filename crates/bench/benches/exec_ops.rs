//! Criterion micro-benchmarks for the execution engine: shared vs
//! unshared execution (the Figure 7 mechanism), the vectorized vs
//! row-at-a-time operator paths (`vec_exec`), the borrow-based
//! `eval_pred` hot path, the four kernels that read `Int` key images
//! (`nl_join`'s one-pass equi probe, `sort_by`'s radix sort,
//! `merge_join`'s key groups, `sort_aggregate`'s group boundaries), the
//! typed selection kernels alone (`select`) and a filter pipelined into
//! its projection (`filter_project`) at the sizes the `batch-cold`
//! workload runs them.

use criterion::{criterion_group, criterion_main, Criterion};
use mqo_core::Optimizer;
use mqo_exec::ops::{self, Params};
use mqo_exec::{
    execute_plan, execute_plan_with, generate_database, vops, ExecMode, ExecOptions, Table,
};
use mqo_expr::{Atom, CmpOp, Predicate, Value};
use mqo_logical::{Batch, LogicalPlan, Query};
use mqo_util::FxHashMap;
use mqo_workloads::Tpcd;
use std::hint::black_box;

fn bench_shared_vs_unshared(c: &mut Criterion) {
    let w = Tpcd::new(0.002);
    let optimizer = Optimizer::new(&w.catalog);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let params = FxHashMap::default();
    let mut group = c.benchmark_group("fig7_execution");
    group.sample_size(10);
    for (name, batch) in [("Q11", w.q11()), ("Q15", w.q15())] {
        let ctx = optimizer.prepare(&batch);
        let base = optimizer.search(&ctx, "Volcano").unwrap();
        let greedy = optimizer.search(&ctx, "Greedy").unwrap();
        group.bench_function(format!("{name}/no_mqo"), |b| {
            b.iter(|| {
                black_box(execute_plan(&w.catalog, &ctx.pdag, &base.plan, &db, &params).rows_out)
            });
        });
        group.bench_function(format!("{name}/mqo"), |b| {
            b.iter(|| {
                black_box(execute_plan(&w.catalog, &ctx.pdag, &greedy.plan, &db, &params).rows_out)
            });
        });
    }
    group.finish();
}

/// Row path vs vectorized path on the TPC-D-derived executions at the
/// default datagen scale — the headline number for the batched engine.
fn bench_vec_exec(c: &mut Criterion) {
    let w = Tpcd::new(0.004);
    let optimizer = Optimizer::new(&w.catalog);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let params = FxHashMap::default();
    let mut group = c.benchmark_group("vec_exec");
    group.sample_size(10);
    for (name, batch) in [("Q11", w.q11()), ("Q15", w.q15()), ("BQ2", w.bq(2))] {
        let ctx = optimizer.prepare(&batch);
        let greedy = optimizer.search(&ctx, "Greedy").unwrap();
        for (mode_name, mode) in [("row", ExecMode::Row), ("vec", ExecMode::Vectorized)] {
            group.bench_function(format!("{name}/{mode_name}"), |b| {
                b.iter(|| {
                    black_box(
                        execute_plan_with(
                            &w.catalog,
                            &ctx.pdag,
                            &greedy.plan,
                            &db,
                            &params,
                            ExecOptions {
                                mode,
                                ..ExecOptions::default()
                            },
                        )
                        .rows_out,
                    )
                });
            });
        }
    }
    group.finish();
}

/// Pin for the borrow-based legacy `eval_pred`: a string equality atom
/// used to heap-clone the cell per row per atom; resolution now borrows.
fn bench_eval_pred_row(c: &mut Criterion) {
    use mqo_catalog::ColId;
    let schema = vec![ColId(0), ColId(1)];
    let rows: Vec<Vec<Value>> = (0..1024)
        .map(|i| vec![Value::str(&format!("name_{:06}", i % 8)), Value::Int(i)])
        .collect();
    let pred = Predicate::all(vec![
        Atom::cmp(ColId(0), CmpOp::Eq, Value::str("name_000003")),
        Atom::cmp(ColId(1), CmpOp::Ge, 10i64),
    ]);
    let params = Params::default();
    let mut group = c.benchmark_group("eval_pred_row");
    group.bench_function("str_eq_and_int_range/1024rows", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &rows {
                if ops::eval_pred(&pred, &schema, r, &params) {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    group.finish();
}

/// The typed kernels at the shapes that dominate `batch-cold`: the
/// largest nested-loops join there has a 479-row outer against a
/// 60 000-row inner on one `c_i = c_j` atom, the foreign-key joins a
/// 100-row outer that every inner row hits, the largest sort is
/// 60 000 rows of nine columns on one `Int` key, and the largest merge
/// join and sort aggregate read 60 000 sorted rows on one `Int` key.
fn bench_typed_kernels(c: &mut Criterion) {
    use mqo_catalog::ColId;
    use mqo_expr::{AggExpr, AggFunc, ScalarExpr};
    // a multiplicative scramble: deterministic, no sorted runs
    let scrambled = |i: i64, domain: i64| Value::Int(i * 7919 % domain);
    let table = |base: u32, ncols: u32, nrows: i64, domain: i64| {
        let rows = (0..nrows)
            .map(|i| {
                let mut row = vec![scrambled(i, domain)];
                row.extend((1..ncols).map(|k| Value::Int(i + i64::from(k))));
                row
            })
            .collect();
        Table::new((base..base + ncols).map(ColId).collect(), rows)
    };
    let params = Params::default();

    // 479 × 60 000 hits a quarter of the inner rows; 100 × 29 232 is
    // the foreign-key shape, where every inner row hits one outer row
    let pred = Predicate::atom(Atom::eq_cols(ColId(0), ColId(10)));
    let mut group = c.benchmark_group("nl_join");
    group.sample_size(10);
    for (n_outer, n_inner, domain) in [(479, 60_000, 15_013), (100, 29_232, 100)] {
        let (outer, inner) = (table(0, 3, n_outer, domain), table(10, 3, n_inner, domain));
        group.bench_function(format!("equi {n_outer}x{n_inner}"), |b| {
            b.iter(|| black_box(vops::nl_join(&outer, &inner, &pred, &params).len()));
        });
    }
    group.finish();

    let unsorted = table(0, 9, 60_000, 15_013);
    let mut group = c.benchmark_group("sort_by");
    group.sample_size(10);
    group.bench_function("int 60000x9", |b| {
        b.iter(|| {
            let mut t = unsorted.clone();
            t.sort_by(&[ColId(0)]);
            black_box(t.len())
        });
    });
    group.finish();

    let sorted = |mut t: Table, key: ColId| {
        t.sort_by(&[key]);
        t
    };
    let left = sorted(table(0, 3, 60_000, 15_013), ColId(0));
    let right = sorted(table(10, 3, 15_000, 15_013), ColId(10));
    let mut group = c.benchmark_group("merge_join");
    group.sample_size(10);
    group.bench_function("int 60000x15000", |b| {
        b.iter(|| {
            let (lk, rk, t) = ([ColId(0)], [ColId(10)], Predicate::true_());
            black_box(vops::merge_join(&left, &right, &lk, &rk, &t, &params).len())
        });
    });
    group.finish();

    let aggs = [
        AggExpr::new(AggFunc::Sum, ScalarExpr::col(ColId(1)), ColId(90)),
        AggExpr::new(AggFunc::Count, ScalarExpr::col(ColId(2)), ColId(91)),
    ];
    let mut group = c.benchmark_group("sort_aggregate");
    group.sample_size(10);
    group.bench_function("int", |b| {
        b.iter(|| black_box(vops::sort_aggregate(&left, &[ColId(0)], &aggs).len()));
    });
    group.finish();
}

/// `π σ lineitem` through the engine, the shape that dominates
/// `batch-cold`: 60 000 rows of nine columns (one of them the string
/// pad), filtered on `l_shipdate` at selectivity ≈ 0.1, 0.5 and 1.0 and
/// projected to three columns.
fn bench_filter_project(c: &mut Criterion) {
    let w = Tpcd::new(0.01);
    let optimizer = Optimizer::new(&w.catalog);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let params = FxHashMap::default();
    let lineitem = w.catalog.table_by_name("lineitem").expect("TPC-D").id;
    let col = |name| w.catalog.col("lineitem", name);
    let cols = ["l_suppkey", "l_extendedprice", "l_discount"].map(col);
    let mut group = c.benchmark_group("filter_project");
    group.sample_size(10);
    // l_shipdate is uniform over 0..=2526
    for (name, cut) in [("sel0.1", 253i64), ("sel0.5", 1263), ("sel1.0", 2527)] {
        let q = LogicalPlan::scan(lineitem)
            .select(Predicate::atom(Atom::cmp(
                col("l_shipdate"),
                CmpOp::Lt,
                cut,
            )))
            .project(cols.to_vec());
        let batch = Batch::of(vec![Query::new(name, q)]);
        let ctx = optimizer.prepare(&batch);
        let plan = optimizer.search(&ctx, "Volcano").unwrap().plan;
        group.bench_function(format!("60000x9 to 3 cols/{name}"), |b| {
            b.iter(|| {
                let exec = ExecOptions::default();
                black_box(
                    execute_plan_with(&w.catalog, &ctx.pdag, &plan, &db, &params, exec).rows_out,
                )
            });
        });
    }
    group.finish();
}

/// The selection kernels alone, at `batch-cold`'s shapes: 60 000 rows,
/// one `Int` atom `x < cut` keeping ≈ 10 %, 50 % and 90 % of them, and
/// one `Str` equality over separately allocated strings of a 7-value
/// domain (≈ 14 %).
fn bench_select(c: &mut Criterion) {
    use mqo_catalog::ColId;
    let modes = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
    let rows = (0..60_000i64)
        .map(|i| {
            let k = i * 7919 % 2_527;
            vec![Value::Int(k), Value::str(modes[(k % 7) as usize])]
        })
        .collect();
    let t = Table::new(vec![ColId(0), ColId(1)], rows);
    let params = Params::default();
    let mut group = c.benchmark_group("select");
    group.sample_size(10);
    for (name, cut) in [("sel0.1", 253i64), ("sel0.5", 1_263), ("sel0.9", 2_274)] {
        let pred = Predicate::atom(Atom::cmp(ColId(0), CmpOp::Lt, cut));
        group.bench_function(format!("int lt 60000/{name}"), |b| {
            b.iter(|| black_box(vops::select(&t, &pred, &params).map(|s| s.len())));
        });
    }
    let pred = Predicate::atom(Atom::cmp(ColId(1), CmpOp::Eq, Value::str("MAIL")));
    group.bench_function("str eq 60000", |b| {
        b.iter(|| black_box(vops::select(&t, &pred, &params).map(|s| s.len())));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shared_vs_unshared,
    bench_vec_exec,
    bench_eval_pred_row,
    bench_typed_kernels,
    bench_select,
    bench_filter_project
);
criterion_main!(benches);
