//! Workspace-level end-to-end tests: catalog → logical plans → DAG →
//! physical DAG → MQO algorithms → execution, across crates.

use mqo::catalog::{Catalog, ColStats, ColType};
use mqo::core::{Optimized, Optimizer, Options};
use mqo::exec::{execute_plan, generate_database, normalize_result, results_approx_equal};
use mqo::expr::{AggExpr, AggFunc, Atom, CmpOp, Predicate, ScalarExpr};
use mqo::logical::{validate, Batch, LogicalPlan, Query};
use mqo::util::FxHashMap;
use mqo::workloads::{no_overlap, Scaleup, Tpcd};

/// A three-query batch exercising joins, selections, aggregation and
/// subsumption at executable scale.
fn mixed_batch() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    let store = cat
        .table("store")
        .rows(50.0)
        .int_key("st_key")
        .int_uniform("st_region", 0, 4)
        .clustered_on_first()
        .build();
    let item = cat
        .table("item")
        .rows(400.0)
        .int_key("it_key")
        .int_uniform("it_cat", 0, 19)
        .clustered_on_first()
        .build();
    let sales = cat
        .table("sales")
        .rows(20_000.0)
        .int_key("sa_key")
        .int_uniform("sa_store", 0, 49)
        .int_uniform("sa_item", 0, 399)
        .int_uniform("sa_qty", 1, 10)
        .int_uniform("sa_day", 0, 364)
        .clustered_on_first()
        .build();
    let total_q = cat.derived_column("total_q", ColType::Float, ColStats::opaque(50.0));

    let st_key = cat.col("store", "st_key");
    let sa_store = cat.col("sales", "sa_store");
    let it_key = cat.col("item", "it_key");
    let sa_item = cat.col("sales", "sa_item");
    let sa_qty = cat.col("sales", "sa_qty");
    let sa_day = cat.col("sales", "sa_day");
    let st_region = cat.col("store", "st_region");

    let sales_recent = |cut: i64| {
        LogicalPlan::scan(sales).select(Predicate::atom(Atom::cmp(sa_day, CmpOp::Ge, cut)))
    };
    // q1: quantity by region, recent sales
    let q1 = LogicalPlan::scan(store)
        .join(
            sales_recent(180),
            Predicate::atom(Atom::eq_cols(st_key, sa_store)),
        )
        .aggregate(
            vec![st_region],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(sa_qty), total_q)],
        );
    // q2: same join, more recent window (subsumption candidate)
    let q2 = LogicalPlan::scan(store)
        .join(
            sales_recent(300),
            Predicate::atom(Atom::eq_cols(st_key, sa_store)),
        )
        .aggregate(
            vec![st_region],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(sa_qty), total_q)],
        );
    // q3: item-side join, projected
    let q3 = LogicalPlan::scan(item)
        .join(
            sales_recent(180),
            Predicate::atom(Atom::eq_cols(it_key, sa_item)),
        )
        .project(vec![cat.col("item", "it_cat"), sa_qty]);
    (
        cat,
        Batch::of(vec![
            Query::new("q1", q1),
            Query::new("q2", q2),
            Query::new("q3", q3),
        ]),
    )
}

/// Prepares `batch` once and searches it with each named strategy.
fn search<const N: usize>(
    cat: &Catalog,
    batch: &Batch,
    options: Options,
    names: [&str; N],
) -> [Optimized; N] {
    let optimizer = Optimizer::with_options(cat, options);
    let ctx = optimizer.prepare(batch);
    names.map(|name| optimizer.search(&ctx, name).unwrap())
}

#[test]
fn full_pipeline_all_algorithms_agree_on_results() {
    let (cat, batch) = mixed_batch();
    for q in &batch.queries {
        validate(&q.plan, &cat).unwrap();
    }
    let db = generate_database(&cat, 77, usize::MAX);
    let params = FxHashMap::default();
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);

    let base = optimizer.search(&ctx, "Volcano").unwrap();
    let base_out = execute_plan(&cat, &ctx.pdag, &base.plan, &db, &params);
    assert!(base_out.rows_out > 0);

    for name in ["Volcano-SH", "Volcano-RU", "Greedy", "Exhaustive"] {
        let r = optimizer.search(&ctx, name).unwrap();
        assert!(
            r.cost <= base.cost * 1.0001,
            "{name}: {} > {}",
            r.cost,
            base.cost
        );
        let out = execute_plan(&cat, &ctx.pdag, &r.plan, &db, &params);
        for (qi, (a, b)) in base_out.results.iter().zip(out.results.iter()).enumerate() {
            assert!(
                results_approx_equal(&normalize_result(a), &normalize_result(b), 1e-9),
                "{name} query {qi} diverged"
            );
        }
    }
}

#[test]
fn greedy_matches_exhaustive_on_small_batch() {
    // the paper argues greedy approximates the exhaustive optimum; on a
    // small candidate space they should be close
    let (cat, batch) = mixed_batch();
    let [g, e] = search(&cat, &batch, Options::new(), ["Greedy", "Exhaustive"]);
    assert!(e.cost <= g.cost * 1.0001);
    assert!(
        g.cost.secs() <= e.cost.secs() * 1.10,
        "greedy {} strays >10% from exhaustive {}",
        g.cost,
        e.cost
    );
}

#[test]
fn workload_figures_have_paper_shape() {
    // condensed assertions of every figure's qualitative claim
    let w = Tpcd::new(1.0);
    let opts = Options::new();
    let vg = ["Volcano", "Greedy"];

    // Figure 6: greedy dominates on stand-alone queries
    for (name, batch) in w.standalone() {
        let [v, g] = search(&w.catalog, &batch, opts, vg).map(|r| r.cost);
        assert!(g.secs() < v.secs() * 0.8, "{name}: {g} vs {v}");
    }

    // Figure 8: costs grow with batch size; greedy ≤ SH
    let mut prev = 0.0;
    for i in 1..=3 {
        let batch = w.bq(i);
        let [v, s, g] = search(
            &w.catalog,
            &batch,
            opts,
            ["Volcano", "Volcano-SH", "Greedy"],
        )
        .map(|r| r.cost);
        assert!(v.secs() > prev);
        prev = v.secs();
        assert!(g <= s && s <= v);
    }

    // Figure 9/10: scale-up — linear-ish DAG growth, greedy wins, stats populated
    let sc = Scaleup::new(2_000);
    let [r1] = search(&sc.catalog, &sc.cq(1), opts, ["Greedy"]);
    let [r3] = search(&sc.catalog, &sc.cq(3), opts, ["Greedy"]);
    assert!(r3.stats.dag_groups > 2 * r1.stats.dag_groups);
    assert!(r3.stats.dag_groups < 8 * r1.stats.dag_groups);
    assert!(r3.stats.cost_propagations > r1.stats.cost_propagations);

    // §6.4: no-overlap batch is pure overhead
    let (cat, batch) = no_overlap();
    let [v, g] = search(&cat, &batch, opts, vg);
    assert_eq!(g.stats.materialized, 0);
    assert!((g.cost.secs() - v.cost.secs()).abs() < 1e-9);
}

#[test]
fn memory_sweep_preserves_relative_gains() {
    // §6.4: gains relative to Volcano stay within a band across memory sizes
    let w = Tpcd::new(1.0);
    let batch = w.q11();
    let mut ratios = Vec::new();
    for mb in [6u64, 32, 128] {
        let mut opts = Options::new();
        opts.params = mqo::cost::CostParams::with_memory_mb(mb);
        let [v, g] = search(&w.catalog, &batch, opts, ["Volcano", "Greedy"]).map(|r| r.cost);
        ratios.push(v.secs() / g.secs());
    }
    let (lo, hi) = (
        ratios.iter().cloned().fold(f64::MAX, f64::min),
        ratios.iter().cloned().fold(0.0, f64::max),
    );
    assert!(
        hi / lo < 2.0,
        "relative gains unstable across memory: {ratios:?}"
    );
}

#[test]
fn scale_grows_benefit_not_opt_time() {
    // §6.4: BQ3 at scale 1 vs scale 10 — absolute savings grow ~linearly,
    // optimization stays in the same ballpark
    let (mut savings, mut times) = (Vec::new(), Vec::new());
    for scale in [1.0, 10.0] {
        let w = Tpcd::new(scale);
        let batch = w.bq(3);
        let [v, g] = search(&w.catalog, &batch, Options::new(), ["Volcano", "Greedy"]);
        savings.push(v.cost.secs() - g.cost.secs());
        times.push(g.stats.total_time_secs());
    }
    assert!(savings[1] > savings[0] * 3.0, "{savings:?}");
    assert!(times[1] < times[0] * 20.0 + 0.05, "{times:?}");
}
