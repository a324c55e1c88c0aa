//! The §8 future-work extension: greedy under a temporary-storage budget
//! selects by benefit per unit space and never exceeds the budget.

use mqo_catalog::{Catalog, ColStats, ColType};
use mqo_core::{GreedyOptions, OptContext, Optimized, Optimizer};
use mqo_expr::{AggExpr, AggFunc, Atom, Predicate, ScalarExpr};
use mqo_logical::{Batch, LogicalPlan, Query};

fn setup() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    let a = cat
        .table("big_a")
        .rows(200_000.0)
        .int_key("bak")
        .int_uniform("bav", 0, 499)
        .clustered_on_first()
        .build();
    let b = cat
        .table("big_b")
        .rows(400_000.0)
        .int_key("bbk")
        .int_uniform("bafk", 0, 199_999)
        .clustered_on_first()
        .build();
    let t1 = cat.derived_column("sb1", ColType::Float, ColStats::opaque(500.0));
    let bav = cat.col("big_a", "bav");
    let bbk = cat.col("big_b", "bbk");
    let join = Predicate::atom(Atom::eq_cols(
        cat.col("big_a", "bak"),
        cat.col("big_b", "bafk"),
    ));
    let q = LogicalPlan::scan(a)
        .join(LogicalPlan::scan(b), join)
        .aggregate(
            vec![bav],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(bbk), t1)],
        );
    (
        cat,
        Batch::of(vec![Query::new("q1", q.clone()), Query::new("q2", q)]),
    )
}

/// Searches a prepared context with Greedy under a space budget.
fn greedy_with_budget(
    optimizer: &mut Optimizer<'_>,
    ctx: &OptContext<'_>,
    budget: Option<f64>,
) -> Optimized {
    optimizer.options_mut().greedy = GreedyOptions::new().with_space_budget_blocks(budget);
    optimizer.search(ctx, "Greedy").unwrap()
}

#[test]
fn zero_budget_degenerates_to_volcano() {
    let (cat, batch) = setup();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let base = optimizer.search(&ctx, "Volcano").unwrap();
    let g = greedy_with_budget(&mut optimizer, &ctx, Some(0.0));
    assert_eq!(g.stats.materialized, 0);
    assert!((g.cost.secs() - base.cost.secs()).abs() < 1e-9);
}

#[test]
fn generous_budget_matches_unbudgeted_greedy() {
    let (cat, batch) = setup();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let unbudgeted = optimizer.search(&ctx, "Greedy").unwrap();
    let g = greedy_with_budget(&mut optimizer, &ctx, Some(1e12));
    assert!((g.cost.secs() - unbudgeted.cost.secs()).abs() < 1e-6);
    assert_eq!(g.stats.materialized, unbudgeted.stats.materialized);
}

#[test]
fn budget_is_respected_and_cost_is_sandwiched() {
    let (cat, batch) = setup();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let base = optimizer.search(&ctx, "Volcano").unwrap();
    let unbudgeted = optimizer.search(&ctx, "Greedy").unwrap();
    assert!(
        unbudgeted.stats.materialized > 0,
        "nothing shared — vacuous"
    );

    // find the unbudgeted plan's total footprint, then halve it
    let full_blocks: f64 = unbudgeted.mat.iter().map(|m| ctx.pdag.node(m).blocks).sum();
    let budget = full_blocks / 2.0;
    let g = greedy_with_budget(&mut optimizer, &ctx, Some(budget));
    let used: f64 = g.mat.iter().map(|m| ctx.pdag.node(m).blocks).sum();
    assert!(used <= budget + 1e-6, "budget violated: {used} > {budget}");
    assert!(g.cost <= base.cost * 1.0001, "worse than volcano");
    assert!(
        g.cost >= unbudgeted.cost * 0.9999,
        "budgeted cannot beat unbudgeted: {} < {}",
        g.cost,
        unbudgeted.cost
    );
}

/// Pin: ranking (`score`) and admission (`fits`) charge the *same*
/// footprint — whole blocks, at least one per temp. (The current cost
/// model already floors node sizes at one block, so these are
/// regression pins for the day it produces fractional footprints: the
/// old code ranked sub-block nodes as a full block but admitted them at
/// their raw size.)
#[test]
fn budget_exactly_charged_footprint_admits_the_full_set() {
    let (cat, batch) = setup();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let unbudgeted = optimizer.search(&ctx, "Greedy").unwrap();
    assert!(
        unbudgeted.stats.materialized > 0,
        "nothing shared - vacuous"
    );
    // the charged footprint: whole blocks, minimum one per temp
    let charged: f64 = unbudgeted
        .mat
        .iter()
        .map(|m| ctx.pdag.node(m).blocks.max(1.0))
        .sum();
    let g = greedy_with_budget(&mut optimizer, &ctx, Some(charged));
    assert_eq!(g.stats.materialized, unbudgeted.stats.materialized);
    assert!((g.cost.secs() - unbudgeted.cost.secs()).abs() < 1e-9);
}

#[test]
fn budget_below_one_block_admits_nothing() {
    let (cat, batch) = setup();
    let mut optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let unbudgeted = optimizer.search(&ctx, "Greedy").unwrap();
    assert!(
        unbudgeted.stats.materialized > 0,
        "nothing shared - vacuous"
    );
    // every temp is charged at least one whole block, by ranking AND by
    // admission - a budget under one block must admit nothing
    let g = greedy_with_budget(&mut optimizer, &ctx, Some(0.99));
    assert_eq!(g.stats.materialized, 0);
}
