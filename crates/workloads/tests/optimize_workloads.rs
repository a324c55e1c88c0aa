//! End-to-end optimization of every paper workload: sanity of costs,
//! orderings between algorithms, and the headline effects the paper
//! reports (greedy wins; sharing appears where expected).

use mqo_core::{Optimized, Optimizer};
use mqo_workloads::{no_overlap, Scaleup, Tpcd};

/// Prepares `batch` once and searches it with each named strategy.
fn search<const N: usize>(
    batch: &mqo_logical::Batch,
    cat: &mqo_catalog::Catalog,
    names: [&str; N],
) -> [Optimized; N] {
    let optimizer = Optimizer::new(cat);
    let ctx = optimizer.prepare(batch);
    names.map(|name| optimizer.search(&ctx, name).unwrap())
}

/// The four practical strategies' costs, in the paper's order.
fn run_all(batch: &mqo_logical::Batch, cat: &mqo_catalog::Catalog) -> Vec<(&'static str, f64)> {
    let names = ["Volcano", "Volcano-SH", "Volcano-RU", "Greedy"];
    let costs = search(batch, cat, names).map(|r| r.cost.secs());
    names.into_iter().zip(costs).collect()
}

#[test]
fn standalone_queries_show_paper_ordering() {
    let w = Tpcd::new(1.0);
    for (name, batch) in w.standalone() {
        let costs = run_all(&batch, &w.catalog);
        let volcano = costs[0].1;
        for &(alg, c) in &costs[1..] {
            assert!(
                c <= volcano * 1.0001,
                "{name}: {alg} cost {c} exceeds Volcano {volcano}"
            );
            assert!(c.is_finite() && c > 0.0, "{name}/{alg}");
        }
        let greedy = costs[3].1;
        assert!(
            greedy <= costs[1].1 * 1.0001 && greedy <= costs[2].1 * 1.0001,
            "{name}: greedy {greedy} worse than SH {} or RU {}",
            costs[1].1,
            costs[2].1
        );
    }
}

#[test]
fn q2_greedy_beats_volcano_substantially() {
    let w = Tpcd::new(1.0);
    let batch = w.q2();
    let [base, g] = search(&batch, &w.catalog, ["Volcano", "Greedy"]);
    // the paper reports 126s → 79s (≈1.6×); require a clear win
    assert!(
        g.cost.secs() < base.cost.secs() * 0.8,
        "greedy {} vs volcano {}",
        g.cost,
        base.cost
    );
    assert!(g.stats.materialized >= 1);
}

#[test]
fn q2_notin_gives_order_of_magnitude_style_win() {
    let w = Tpcd::new(1.0);
    let batch = w.q2_notin();
    let [base, g] = search(&batch, &w.catalog, ["Volcano", "Greedy"]);
    // paper: 62927s → 7331s (≈9×). Require at least 4× here.
    assert!(
        g.cost.secs() * 4.0 < base.cost.secs(),
        "greedy {} vs volcano {}",
        g.cost,
        base.cost
    );
}

#[test]
fn q11_all_heuristics_improve() {
    let w = Tpcd::new(1.0);
    let batch = w.q11();
    let costs = run_all(&batch, &w.catalog);
    let volcano = costs[0].1;
    // paper: all three algorithms roughly halve Q11's cost
    for &(alg, c) in &costs[1..] {
        assert!(
            c < volcano * 0.9,
            "{alg} only reached {c} vs volcano {volcano}"
        );
    }
}

#[test]
fn bq5_greedy_beats_sh_and_ru() {
    let w = Tpcd::new(1.0);
    let batch = w.bq(5);
    let costs = run_all(&batch, &w.catalog);
    let (volcano, sh, ru, greedy) = (costs[0].1, costs[1].1, costs[2].1, costs[3].1);
    assert!(greedy < volcano, "greedy {greedy} vs volcano {volcano}");
    assert!(greedy <= sh * 1.0001 && greedy <= ru * 1.0001);
}

#[test]
fn scaleup_cq_costs_grow_and_greedy_wins() {
    let w = Scaleup::new(2_000);
    let mut prev = 0.0;
    for i in 1..=3 {
        let batch = w.cq(i);
        let [base, g] = search(&batch, &w.catalog, ["Volcano", "Greedy"]);
        assert!(g.cost.secs() <= base.cost.secs() * 1.0001, "CQ{i}");
        assert!(base.cost.secs() > prev, "costs should grow with i");
        prev = base.cost.secs();
        assert!(
            g.stats.materialized >= 1,
            "CQ{i}: expected some sharing, got none"
        );
    }
}

#[test]
fn no_overlap_batch_is_pure_overhead() {
    let (cat, batch) = no_overlap();
    let [base, g] = search(&batch, &cat, ["Volcano", "Greedy"]);
    assert_eq!(g.stats.sharable, 0);
    assert!((g.cost.secs() - base.cost.secs()).abs() < 1e-9);
}
