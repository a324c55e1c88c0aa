//! The search is a pure function of the prepared batch: two fresh
//! optimizers return the identical `(cost, mat, plan)` for Greedy and
//! KS15. A serving session's plan reuse relies on this — a stored plan
//! stands in for the plan a fresh search would find. The work counters
//! the Fig. 10 and §6.3 tables report reproduce exactly too, and walking
//! the registry finds what a search by name finds.

use mqo::core::{GreedyOptions, Optimized, Optimizer, Options, Registry};
use mqo::ks15::Ks15Greedy;
use mqo::physical::ChosenOp;
use mqo::workloads::{Scaleup, Tpcd};
use std::sync::Arc;

/// Everything observable about a search result, in comparable form:
/// exact cost bits, the sorted materialized set, and the full extracted
/// plan (choices sorted by node, query roots, topo-ordered temps).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    cost_bits: u64,
    mat: Vec<usize>,
    choices: Vec<(usize, ChosenOp)>,
    query_roots: Vec<usize>,
    plan_temps: Vec<usize>,
}

fn fingerprint(r: &Optimized) -> Fingerprint {
    let mut mat: Vec<usize> = r.mat.iter().map(|n| n.index()).collect();
    mat.sort_unstable();
    let mut choices: Vec<(usize, ChosenOp)> = r
        .plan
        .choices
        .iter()
        .map(|(n, &c)| (n.index(), c))
        .collect();
    choices.sort_unstable_by_key(|&(n, _)| n);
    Fingerprint {
        cost_bits: r.cost.secs().to_bits(),
        mat,
        choices,
        query_roots: r.plan.query_roots.iter().map(|n| n.index()).collect(),
        plan_temps: r.plan.materialized.iter().map(|n| n.index()).collect(),
    }
}

fn search_fresh(
    catalog: &mqo::catalog::Catalog,
    batch: &mqo::logical::Batch,
    strategy: &str,
) -> Optimized {
    search_with_options(catalog, batch, strategy, Options::new())
}

fn search_with_options(
    catalog: &mqo::catalog::Catalog,
    batch: &mqo::logical::Batch,
    strategy: &str,
    options: Options,
) -> Optimized {
    let mut optimizer = Optimizer::with_options(catalog, options);
    optimizer.register(Arc::new(Ks15Greedy)).unwrap();
    let ctx = optimizer.prepare(batch);
    optimizer.search(&ctx, strategy).unwrap()
}

/// Greedy and KS15 return the identical plan, cost and materialized set
/// from two fresh optimizers, on both the scale-up (CQ) and TPCD-like
/// workloads.
#[test]
fn fresh_optimizers_find_identical_plans() {
    let scaleup = Scaleup::new(2_000);
    let tpcd = Tpcd::new(1.0);
    let batches = [
        ("CQ2", &scaleup.catalog, scaleup.cq(2)),
        ("BQ2", &tpcd.catalog, tpcd.bq(2)),
    ];
    for (name, catalog, batch) in &batches {
        for strategy in ["Greedy", "KS15-Greedy"] {
            let first = fingerprint(&search_fresh(catalog, batch, strategy));
            let second = fingerprint(&search_fresh(catalog, batch, strategy));
            assert_eq!(first, second, "{strategy} diverged on {name}");
        }
    }
}

/// The monotonicity ablation probes every remaining candidate per round;
/// its counters (the §6.3 table) reproduce exactly from a fresh
/// optimizer, and the heuristic it ablates saves probes on CQ2.
#[test]
fn probe_all_counters_reproduce() {
    let w = Scaleup::new(2_000);
    let batch = w.cq(2);
    let probe_all = || Options::new().with_greedy(GreedyOptions::new().with_monotonicity(false));
    let first = search_with_options(&w.catalog, &batch, "Greedy", probe_all());
    let second = search_with_options(&w.catalog, &batch, "Greedy", probe_all());
    assert_eq!(
        first.stats.benefit_recomputations,
        second.stats.benefit_recomputations
    );
    assert_eq!(
        first.stats.cost_propagations,
        second.stats.cost_propagations
    );
    assert_eq!(first.stats.materialized, second.stats.materialized);
    assert_eq!(first.stats.sharable, second.stats.sharable);
    assert_eq!(first.stats.candidates, second.stats.candidates);
    assert_eq!(fingerprint(&first), fingerprint(&second));

    let heuristic = search_fresh(&w.catalog, &batch, "Greedy");
    assert!(
        heuristic.stats.benefit_recomputations < first.stats.benefit_recomputations,
        "monotonicity made {} probes, probe-all {}",
        heuristic.stats.benefit_recomputations,
        first.stats.benefit_recomputations
    );
}

/// KS15's descent round probes each removal in place on one state; the
/// probes leave no trace, so a second search of the same prepared context
/// repeats the first's counters and plan, and a fresh optimizer's too.
#[test]
fn ks15_counters_reproduce_on_one_context() {
    let w = Scaleup::new(2_000);
    let batch = w.cq(2);
    let mut optimizer = Optimizer::new(&w.catalog);
    optimizer.register(Arc::new(Ks15Greedy)).unwrap();
    let ctx = optimizer.prepare(&batch);
    let first = optimizer.search(&ctx, "KS15-Greedy").unwrap();
    let again = optimizer.search(&ctx, "KS15-Greedy").unwrap();
    let fresh = search_fresh(&w.catalog, &batch, "KS15-Greedy");
    for other in [&again, &fresh] {
        assert_eq!(
            other.stats.benefit_recomputations,
            first.stats.benefit_recomputations
        );
        assert_eq!(other.stats.cost_propagations, first.stats.cost_propagations);
        assert_eq!(other.stats.candidates, first.stats.candidates);
        assert_eq!(fingerprint(other), fingerprint(&first));
    }
}

/// Walking `registry()` with `search_with` visits the strategies in
/// registration order and returns what a search by name returns.
#[test]
fn registry_walk_matches_searches_by_name() {
    let w = Scaleup::new(2_000);
    let batch = w.cq(2);
    // Curated registry (the `with_registry` constructor): skip the
    // Exhaustive oracle, add KS15 through the public extension point.
    let mut registry = Registry::empty();
    for s in Registry::builtin().iter() {
        if s.name() != "Exhaustive" {
            registry.register(Arc::clone(s)).unwrap();
        }
    }
    registry.register(Arc::new(Ks15Greedy)).unwrap();
    let optimizer = Optimizer::with_registry(&w.catalog, Options::new(), registry);
    let ctx = optimizer.prepare(&batch);

    let walked: Vec<(String, Optimized)> = optimizer
        .registry()
        .iter()
        .map(|s| {
            (
                s.name().to_string(),
                optimizer.search_with(&ctx, s.as_ref()).unwrap(),
            )
        })
        .collect();
    let names: Vec<&str> = walked.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "Volcano",
            "Volcano-SH",
            "Volcano-RU",
            "Greedy",
            "KS15-Greedy"
        ],
        "the registry walks in registration order"
    );
    for (name, result) in &walked {
        let by_name = optimizer.search(&ctx, name).unwrap();
        assert_eq!(
            fingerprint(result),
            fingerprint(&by_name),
            "{name} diverged between the walk and the search by name"
        );
    }
}
