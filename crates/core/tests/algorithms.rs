//! Cross-algorithm behavior on characteristic multi-query workloads:
//! the paper's Example 1.1, batches with/without overlap, subsumption
//! sharing, nested-query weights, and the §6.3 ablation equivalences.

use mqo_catalog::{Catalog, ColStats, ColType};
use mqo_core::{GreedyOptions, Optimized, Optimizer};
use mqo_expr::{AggExpr, AggFunc, Atom, CmpOp, ParamId, Predicate, ScalarExpr};
use mqo_logical::{Batch, LogicalPlan, Query};

/// Prepares `batch` once and searches it with each named strategy.
fn search<const N: usize>(cat: &Catalog, batch: &Batch, names: [&str; N]) -> [Optimized; N] {
    let optimizer = Optimizer::new(cat);
    let ctx = optimizer.prepare(batch);
    names.map(|name| optimizer.search(&ctx, name).unwrap())
}

/// Catalog with four relations joined pairwise, used by Example 1.1.
fn example_11() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    for name in ["r", "s", "t", "p"] {
        let _ = cat
            .table(name)
            .rows(200_000.0)
            .int_key(&format!("{name}k"))
            .int_uniform(&format!("{name}v"), 0, 1_999)
            .clustered_on_first()
            .build();
    }
    let rs = Predicate::atom(Atom::eq_cols(cat.col("r", "rv"), cat.col("s", "sk")));
    let rt = Predicate::atom(Atom::eq_cols(cat.col("r", "rk"), cat.col("t", "tv")));
    let sp = Predicate::atom(Atom::eq_cols(cat.col("s", "sv"), cat.col("p", "pk")));
    let r = cat.table_by_name("r").unwrap().id;
    let s = cat.table_by_name("s").unwrap().id;
    let t = cat.table_by_name("t").unwrap().id;
    let p = cat.table_by_name("p").unwrap().id;
    // Q1 = (R ⋈ S) ⋈ P ; Q2 = (R ⋈ T) ⋈ S
    let q1 = LogicalPlan::scan(r)
        .join(LogicalPlan::scan(s), rs.clone())
        .join(LogicalPlan::scan(p), sp);
    let q2 = LogicalPlan::scan(r)
        .join(LogicalPlan::scan(t), rt)
        .join(LogicalPlan::scan(s), rs);
    (
        cat,
        Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
    )
}

/// A pair of identical aggregate queries over an expensive join.
fn shared_aggregate() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    let a = cat
        .table("a")
        .rows(150_000.0)
        .int_key("ak")
        .int_uniform("av", 0, 499)
        .clustered_on_first()
        .build();
    let b = cat
        .table("b")
        .rows(300_000.0)
        .int_key("bk")
        .int_uniform("afk", 0, 149_999)
        .clustered_on_first()
        .build();
    let av = cat.col("a", "av");
    let bk = cat.col("b", "bk");
    let tot = cat.derived_column("tot", ColType::Float, ColStats::opaque(500.0));
    let jab = Predicate::atom(Atom::eq_cols(cat.col("a", "ak"), cat.col("b", "afk")));
    let q = LogicalPlan::scan(a)
        .join(LogicalPlan::scan(b), jab)
        .aggregate(
            vec![av],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(bk), tot)],
        );
    (
        cat,
        Batch::of(vec![Query::new("q1", q.clone()), Query::new("q2", q)]),
    )
}

#[test]
fn all_heuristics_beat_or_match_volcano() {
    for (cat, batch) in [example_11(), shared_aggregate()] {
        let optimizer = Optimizer::new(&cat);
        let ctx = optimizer.prepare(&batch);
        let base = optimizer.search(&ctx, "Volcano").unwrap();
        for name in ["Volcano-SH", "Volcano-RU", "Greedy"] {
            let r = optimizer.search(&ctx, name).unwrap();
            assert!(
                r.cost <= base.cost * 1.0001,
                "{name} produced {} > Volcano {}",
                r.cost,
                base.cost
            );
        }
    }
}

#[test]
fn greedy_shares_identical_aggregates() {
    let (cat, batch) = shared_aggregate();
    let [base, g] = search(&cat, &batch, ["Volcano", "Greedy"]);
    assert!(g.stats.materialized >= 1, "greedy materialized nothing");
    // sharing an identical expensive query should save close to half
    assert!(
        g.cost.secs() < base.cost.secs() * 0.75,
        "greedy {} vs volcano {}",
        g.cost,
        base.cost
    );
}

#[test]
fn exhaustive_is_a_lower_bound_on_small_inputs() {
    let (cat, batch) = shared_aggregate();
    let [g, e] = search(&cat, &batch, ["Greedy", "Exhaustive"]);
    assert!(
        e.cost <= g.cost * 1.0001,
        "exhaustive {} should not exceed greedy {}",
        e.cost,
        g.cost
    );
}

#[test]
fn no_overlap_batch_degenerates_to_volcano() {
    // §6.4: disjoint queries — greedy finds nothing sharable and returns
    // the Volcano plan.
    let mut cat = Catalog::new();
    for i in 0..4 {
        let _ = cat
            .table(&format!("t{i}"))
            .rows(50_000.0)
            .int_key("k")
            .int_uniform("v", 0, 999)
            .clustered_on_first()
            .build();
    }
    let mk = |cat: &Catalog, a: &str, b: &str| {
        let pred = Predicate::atom(Atom::eq_cols(cat.col(a, "v"), cat.col(b, "k")));
        LogicalPlan::scan(cat.table_by_name(a).unwrap().id)
            .join(LogicalPlan::scan(cat.table_by_name(b).unwrap().id), pred)
    };
    let batch = Batch::of(vec![
        Query::new("q1", mk(&cat, "t0", "t1")),
        Query::new("q2", mk(&cat, "t2", "t3")),
    ]);
    let [base, g] = search(&cat, &batch, ["Volcano", "Greedy"]);
    assert_eq!(g.stats.sharable, 0);
    assert_eq!(g.stats.materialized, 0);
    assert!((g.cost.secs() - base.cost.secs()).abs() < 1e-9);
}

#[test]
fn subsumption_sharing_on_overlapping_selections() {
    // σ_{v≥800}(E) and σ_{v≥900}(E): the stronger can be derived from the
    // weaker; greedy should materialize the weaker select once.
    let mut cat = Catalog::new();
    let e = cat
        .table("e")
        .rows(500_000.0)
        .int_key("k")
        .int_uniform("v", 0, 999)
        .build();
    let f = cat
        .table("f")
        .rows(100_000.0)
        .int_key("fk")
        .int_uniform("efk", 0, 499_999)
        .clustered_on_first()
        .build();
    let v = cat.col("e", "v");
    let join = Predicate::atom(Atom::eq_cols(cat.col("e", "k"), cat.col("f", "efk")));
    let mk = |bound: i64| {
        LogicalPlan::scan(e)
            .select(Predicate::atom(Atom::cmp(v, CmpOp::Ge, bound)))
            .join(LogicalPlan::scan(f), join.clone())
    };
    let batch = Batch::of(vec![
        Query::new("q_lo", mk(800)),
        Query::new("q_hi", mk(900)),
    ]);
    let [base, g] = search(&cat, &batch, ["Volcano", "Greedy"]);
    assert!(
        g.cost < base.cost,
        "subsumption sharing should pay: {} vs {}",
        g.cost,
        base.cost
    );
    assert!(g.stats.materialized >= 1);
}

#[test]
fn nested_query_weights_drive_materialization() {
    // A weight-500 "inner" query template over an invariant join: greedy
    // must materialize the invariant part; Volcano pays 500 recomputes.
    let mut cat = Catalog::new();
    let a = cat
        .table("na")
        .rows(100_000.0)
        .int_key("nak")
        .int_uniform("nav", 0, 9_999)
        .clustered_on_first()
        .build();
    let b = cat
        .table("nb")
        .rows(50_000.0)
        .int_key("nbk")
        .int_uniform("nafk", 0, 99_999)
        .clustered_on_first()
        .build();
    let join = Predicate::atom(Atom::eq_cols(cat.col("na", "nak"), cat.col("nb", "nafk")));
    let inner = LogicalPlan::scan(a)
        .join(LogicalPlan::scan(b), join)
        .select(Predicate::atom(Atom::Param {
            col: cat.col("na", "nav"),
            op: CmpOp::Eq,
            param: ParamId(0),
        }));
    let batch = Batch::of(vec![Query::invoked("inner", inner, 500.0)]);
    let [base, g] = search(&cat, &batch, ["Volcano", "Greedy"]);
    assert!(g.stats.materialized >= 1, "invariant not materialized");
    assert!(
        g.cost.secs() < base.cost.secs() / 3.0,
        "expected large win: greedy {} vs volcano {}",
        g.cost,
        base.cost
    );
    // the correlated select itself must NOT be materialized
    for m in g.mat.iter() {
        let group = g
            .plan
            .materialized
            .iter()
            .find(|&&x| x == m)
            .map(|_| ())
            .is_some();
        assert!(group);
    }
}

#[test]
fn monotonicity_ablation_preserves_plan_quality() {
    // §6.3: plans with and without the monotonicity heuristic had
    // "virtually the same cost".
    let (cat, batch) = shared_aggregate();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let with = optimizer.search(&ctx, "Greedy").unwrap();
    optimizer.options_mut().greedy = GreedyOptions::new().with_monotonicity(false);
    let without = optimizer.search(&ctx, "Greedy").unwrap();
    assert!((with.cost.secs() - without.cost.secs()).abs() < 1e-6);
    // and the heuristic computes no MORE benefits than the plain loop
    assert!(with.stats.benefit_recomputations <= without.stats.benefit_recomputations);
}

#[test]
fn sharability_ablation_preserves_plan_quality() {
    let (cat, batch) = example_11();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let with = optimizer.search(&ctx, "Greedy").unwrap();
    optimizer.options_mut().greedy = GreedyOptions::new().with_sharability(false);
    let without = optimizer.search(&ctx, "Greedy").unwrap();
    assert!((with.cost.secs() - without.cost.secs()).abs() < 1e-6);
    // sharability filtering must not lose candidates that matter, but it
    // must shrink the candidate pool
    assert!(with.stats.sharable <= without.stats.sharable);
}

#[test]
fn incremental_ablation_same_answer() {
    let (cat, batch) = shared_aggregate();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let with = optimizer.search(&ctx, "Greedy").unwrap();
    optimizer.options_mut().greedy = GreedyOptions::new().with_incremental(false);
    let without = optimizer.search(&ctx, "Greedy").unwrap();
    assert!((with.cost.secs() - without.cost.secs()).abs() < 1e-6);
}

#[test]
fn volcano_ru_orders_give_valid_plan() {
    let (cat, batch) = example_11();
    let [ru] = search(&cat, &batch, ["Volcano-RU"]);
    assert!(ru.cost.is_finite());
    assert_eq!(ru.plan.query_roots.len(), 2);
}

#[test]
fn stats_are_populated() {
    let (cat, batch) = shared_aggregate();
    let [g] = search(&cat, &batch, ["Greedy"]);
    assert!(g.stats.dag_groups > 0);
    assert!(g.stats.dag_ops > 0);
    assert!(g.stats.phys_nodes > 0);
    assert!(g.stats.benefit_recomputations > 0);
    assert!(g.stats.cost_propagations > 0);
    // the staged API splits timing: DAG stages vs strategy search
    assert!(g.stats.dag_time_secs > 0.0);
    assert!(g.stats.search_time_secs > 0.0);
    assert!(g.stats.total_time_secs() >= g.stats.dag_time_secs);
}
