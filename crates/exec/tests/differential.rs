//! Differential end-to-end tests: plans chosen by the MQO algorithms
//! must return exactly the same result sets as the unshared Volcano
//! plans — sharing is an optimization, never a semantic change.

use mqo_catalog::{Catalog, ColStats, ColType};
use mqo_core::Optimizer;
use mqo_exec::{execute_plan, generate_database, normalize_result, results_approx_equal};
use mqo_expr::{AggExpr, AggFunc, Atom, CmpOp, Predicate, ScalarExpr};
use mqo_logical::{Batch, LogicalPlan, Query};
use mqo_util::FxHashMap;

/// Small star-schema catalog whose statistics match the generated data
/// exactly (no scaling), so plans and data agree.
fn setup() -> (Catalog, Batch) {
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
    // q1: sum(val) by dcat over dim ⋈ fact
    let q1 = LogicalPlan::scan(dim)
        .join(LogicalPlan::scan(fact), join_df.clone())
        .aggregate(
            vec![dcat],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(val), sum1)],
        );
    // q2: the same join, filtered, joined with `other` on category
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

#[test]
fn shared_plans_return_identical_results() {
    let (cat, batch) = setup();
    let db = generate_database(&cat, 1234, usize::MAX);
    let params = FxHashMap::default();

    // every strategy searches, and executes against, one physical DAG
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let base = optimizer.search(&ctx, "Volcano").unwrap();
    let base_out = execute_plan(&cat, &ctx.pdag, &base.plan, &db, &params);
    assert_eq!(base_out.results.len(), 2);
    assert!(base_out.rows_out > 0, "workload returned nothing");

    for name in ["Volcano-SH", "Volcano-RU", "Greedy"] {
        let r = optimizer.search(&ctx, name).unwrap();
        let out = execute_plan(&cat, &ctx.pdag, &r.plan, &db, &params);
        assert_eq!(out.results.len(), 2, "{name}");
        for (qi, (a, b)) in base_out.results.iter().zip(out.results.iter()).enumerate() {
            assert!(
                results_approx_equal(&normalize_result(a), &normalize_result(b), 1e-9),
                "{name} query {qi} diverged"
            );
        }
    }
}

#[test]
fn greedy_plan_actually_materializes_and_reuses() {
    let (cat, batch) = setup();
    let db = generate_database(&cat, 99, usize::MAX);
    let params = FxHashMap::default();
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let g = optimizer.search(&ctx, "Greedy").unwrap();
    let out = execute_plan(&cat, &ctx.pdag, &g.plan, &db, &params);
    assert_eq!(out.temps_built, g.plan.materialized.len());
    if g.stats.materialized > 0 {
        assert!(out.temps_built > 0);
    }
}

#[test]
fn execution_is_deterministic() {
    let (cat, batch) = setup();
    let db = generate_database(&cat, 5, usize::MAX);
    let params = FxHashMap::default();
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let g = optimizer.search(&ctx, "Greedy").unwrap();
    let out1 = execute_plan(&cat, &ctx.pdag, &g.plan, &db, &params);
    let out2 = execute_plan(&cat, &ctx.pdag, &g.plan, &db, &params);
    for (a, b) in out1.results.iter().zip(out2.results.iter()) {
        assert_eq!(normalize_result(a), normalize_result(b));
    }
}

#[test]
fn aggregate_results_match_manual_computation() {
    // independent oracle: compute q1's grouped sums by hand from the
    // generated data and compare with the executed plan
    let (cat, batch) = setup();
    let db = generate_database(&cat, 2024, usize::MAX);
    let params = FxHashMap::default();
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let g = optimizer.search(&ctx, "Greedy").unwrap();
    let out = execute_plan(&cat, &ctx.pdag, &g.plan, &db, &params);

    let dim = db.table(cat.table_by_name("dim").unwrap().id);
    let fact = db.table(cat.table_by_name("fact").unwrap().id);
    let dkp = dim.col_pos(cat.col("dim", "dk"));
    let dcatp = dim.col_pos(cat.col("dim", "dcat"));
    let dfkp = fact.col_pos(cat.col("fact", "dfk"));
    let valp = fact.col_pos(cat.col("fact", "val"));
    let mut expected: std::collections::BTreeMap<i64, f64> = Default::default();
    for d in dim.rows() {
        for f in fact.rows() {
            if d[dkp] == f[dfkp] {
                *expected.entry(d[dcatp].as_i64().unwrap()).or_default() +=
                    f[valp].as_f64().unwrap();
            }
        }
    }
    let got = &out.results[0];
    let catp = got.col_pos(cat.col("dim", "dcat"));
    let sump = got
        .schema
        .iter()
        .position(|&c| cat.column(c).name == "sum1")
        .unwrap();
    assert_eq!(got.len(), expected.len());
    for r in got.rows() {
        let k = r[catp].as_i64().unwrap();
        let v = r[sump].as_f64().unwrap();
        assert!((v - expected[&k]).abs() < 1e-6, "group {k}: {v}");
    }
}
