//! End-to-end execution of the TPC-D-like workloads at reduced scale:
//! every batch's shared (Greedy) plan must return the same rows as the
//! unshared (Volcano) plan — across the full operator repertoire
//! (indexed selects, merge joins, indexed NL joins, temp probes,
//! re-aggregation derivations).

use mqo_core::Optimizer;
use mqo_exec::{execute_plan, generate_database, normalize_result, results_approx_equal};
use mqo_util::FxHashMap;
use mqo_workloads::Tpcd;

fn run_both(batch: &mqo_logical::Batch, w: &Tpcd) {
    let db = generate_database(&w.catalog, 20_260, usize::MAX);
    let params = FxHashMap::default();
    let optimizer = Optimizer::new(&w.catalog);
    let ctx = optimizer.prepare(batch);
    let base = optimizer.search(&ctx, "Volcano").unwrap();
    let greedy = optimizer.search(&ctx, "Greedy").unwrap();
    let a = execute_plan(&w.catalog, &ctx.pdag, &base.plan, &db, &params);
    let b = execute_plan(&w.catalog, &ctx.pdag, &greedy.plan, &db, &params);
    assert_eq!(a.results.len(), b.results.len());
    for (qi, (x, y)) in a.results.iter().zip(b.results.iter()).enumerate() {
        assert!(
            results_approx_equal(&normalize_result(x), &normalize_result(y), 1e-9),
            "query {qi} diverged (volcano {} rows vs greedy {} rows)",
            x.len(),
            y.len()
        );
    }
}

#[test]
fn q2d_executes_identically() {
    let w = Tpcd::new(0.002);
    run_both(&w.q2d(), &w);
}

#[test]
fn q11_executes_identically() {
    let w = Tpcd::new(0.002);
    run_both(&w.q11(), &w);
}

#[test]
fn q15_executes_identically() {
    let w = Tpcd::new(0.002);
    run_both(&w.q15(), &w);
}

#[test]
fn bq2_executes_identically() {
    let w = Tpcd::new(0.002);
    run_both(&w.bq(2), &w);
}

#[test]
fn bq5_executes_identically() {
    let w = Tpcd::new(0.001);
    run_both(&w.bq(5), &w);
}

#[test]
fn results_are_nonempty_where_expected() {
    // guard against vacuous differential tests: Q11's grouped aggregate
    // must produce rows at this scale (0.01 keeps every nation populated
    // with suppliers with overwhelming probability)
    let w = Tpcd::new(0.01);
    let batch = w.q11();
    let db = generate_database(&w.catalog, 1, usize::MAX);
    let params = FxHashMap::default();
    let optimizer = Optimizer::new(&w.catalog);
    let ctx = optimizer.prepare(&batch);
    let g = optimizer.search(&ctx, "Greedy").unwrap();
    let out = execute_plan(&w.catalog, &ctx.pdag, &g.plan, &db, &params);
    assert!(!out.results[0].is_empty(), "Q11 by-part result empty");
    assert_eq!(out.results[1].len(), 1, "Q11 total must be a single row");
}
