//! Behavior of Volcano-SH and Volcano-RU specifics: the consolidated
//! plan graph's use counting, the subsumption pre-pass/undo, query-order
//! sensitivity and the never-worse-than-Volcano guarantee.

use mqo_catalog::{Catalog, ColStats, ColType};
use mqo_core::{Optimized, Optimizer, PlanGraph};
use mqo_expr::{AggExpr, AggFunc, Atom, CmpOp, Predicate, ScalarExpr};
use mqo_logical::{Batch, LogicalPlan, Query};
use mqo_physical::{CostTable, MatSet};

/// Prepares `batch` once and searches it with each named strategy.
fn search<const N: usize>(cat: &Catalog, batch: &Batch, names: [&str; N]) -> [Optimized; N] {
    let optimizer = Optimizer::new(cat);
    let ctx = optimizer.prepare(batch);
    names.map(|name| optimizer.search(&ctx, name).unwrap())
}

/// Two identical expensive aggregates plus a third query over a superset
/// selection — exercises plain sharing and subsumption simultaneously.
fn setup() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    let ev = cat
        .table("events")
        .rows(400_000.0)
        .int_key("ev_key")
        .int_uniform("ev_kind", 0, 49)
        .int_uniform("ev_day", 0, 999)
        .build();
    let users = cat
        .table("users")
        .rows(20_000.0)
        .int_key("us_key")
        .int_uniform("us_grp", 0, 9)
        .clustered_on_first()
        .build();
    let n = cat.derived_column("n_events", ColType::Float, ColStats::opaque(50.0));
    let kind = cat.col("events", "ev_kind");
    let day = cat.col("events", "ev_day");
    let q = |cut: i64| {
        LogicalPlan::scan(ev)
            .select(Predicate::atom(Atom::cmp(day, CmpOp::Ge, cut)))
            .aggregate(
                vec![kind],
                vec![AggExpr::new(AggFunc::Count, ScalarExpr::col(day), n)],
            )
    };
    let join_q = LogicalPlan::scan(users).join(
        LogicalPlan::scan(ev).select(Predicate::atom(Atom::cmp(day, CmpOp::Ge, 100i64))),
        Predicate::atom(Atom::eq_cols(
            cat.col("users", "us_key"),
            cat.col("events", "ev_key"),
        )),
    );
    (
        cat,
        Batch::of(vec![
            Query::new("agg_lo", q(100)),
            Query::new("agg_hi", q(600)),
            Query::new("join", join_q),
        ]),
    )
}

#[test]
fn consolidated_plan_counts_uses() {
    let (cat, batch) = setup();
    let ctx = Optimizer::new(&cat).prepare(&batch);
    let table = CostTable::compute(&ctx.pdag, &MatSet::new());
    let graph = PlanGraph::consolidated(&ctx.pdag, &table, &MatSet::new());
    // σ_{day≥100}(events) appears in agg_lo and join → some node must
    // carry ≥ 2 uses
    let shared = graph
        .nodes
        .iter()
        .filter(|n| n.uses > 1.0 + 1e-9 && n.phys != ctx.pdag.root())
        .count();
    assert!(shared >= 1, "consolidated plan found no shared nodes");
    // the root carries exactly one use and every query root one each
    assert!((graph.nodes[graph.root].uses - 1.0).abs() < 1e-9);
}

#[test]
fn sh_never_worse_and_materializes_shared_scan_select() {
    let (cat, batch) = setup();
    let [base, sh] = search(&cat, &batch, ["Volcano", "Volcano-SH"]);
    assert!(sh.cost <= base.cost * 1.0001, "{} > {}", sh.cost, base.cost);
}

#[test]
fn ru_orders_can_differ_but_min_is_reported() {
    let (cat, batch) = setup();
    let [base, ru] = search(&cat, &batch, ["Volcano", "Volcano-RU"]);
    let rev = Batch::of(batch.queries.iter().rev().cloned().collect());
    let [ru_rev] = search(&cat, &rev, ["Volcano-RU"]);
    // RU tries both orders internally; reversing the batch explores the
    // same pair of orders, so the reported minima must be close (exact
    // equality is not guaranteed: the final SH pass breaks ties by plan
    // construction order)
    assert!(ru.cost <= base.cost * 1.0001);
    assert!(ru_rev.cost <= base.cost * 1.0001);
    let (a, b) = (ru.cost.secs(), ru_rev.cost.secs());
    assert!((a - b).abs() / a.max(b) < 0.05, "{a} vs {b}");
}

#[test]
fn sh_handles_single_query_batch_gracefully() {
    let (cat, mut batch) = setup();
    batch.queries.truncate(1);
    let [base, sh] = search(&cat, &batch, ["Volcano", "Volcano-SH"]);
    // one query, no intra-query sharing here → SH equals Volcano
    assert!((sh.cost.secs() - base.cost.secs()).abs() < 1e-9);
    assert_eq!(sh.stats.materialized, 0);
}

#[test]
fn sh_respects_weighted_queries() {
    // a weight-50 query makes every node of its plan 50-times used; SH
    // must account for that in numuses⁻ and materialize aggressively
    let mut cat = Catalog::new();
    let t = cat
        .table("w")
        .rows(200_000.0)
        .int_key("wk")
        .int_uniform("wv", 0, 99)
        .build();
    let tot = cat.derived_column("wtot", ColType::Float, ColStats::opaque(100.0));
    let q = LogicalPlan::scan(t).aggregate(
        vec![cat.col("w", "wv")],
        vec![AggExpr::new(
            AggFunc::Sum,
            ScalarExpr::col(cat.col("w", "wk")),
            tot,
        )],
    );
    let batch = Batch::of(vec![Query::invoked("repeated", q, 50.0)]);
    let [base, sh] = search(&cat, &batch, ["Volcano", "Volcano-SH"]);
    assert!(sh.stats.materialized >= 1, "SH ignored invocation weights");
    assert!(
        sh.cost.secs() < base.cost.secs() / 10.0,
        "sh {} vs volcano {}",
        sh.cost,
        base.cost
    );
}

#[test]
fn all_algorithms_agree_on_empty_sharing_potential() {
    // single tiny query: everything degenerates to the same plan
    let mut cat = Catalog::new();
    let t = cat.table("solo").rows(100.0).int_key("sk").build();
    let batch = Batch::single("solo", LogicalPlan::scan(t));
    let costs = search(
        &cat,
        &batch,
        ["Volcano", "Volcano-SH", "Volcano-RU", "Greedy"],
    )
    .map(|r| r.cost.secs());
    for w in costs.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-12, "{costs:?}");
    }
}
