//! Plan reuse: a batch that recurs against the same warm set runs the
//! plan it got before, and that plan is exactly the one planning again
//! would produce.
//!
//! * **Differential.** A session serves a recurring pool of batches
//!   against a small cache, so residents come and go. Each submit is
//!   replayed by a fresh [`SessionCore`] on a copy of the store the
//!   submit saw, and committed onto another copy: cost bits, counters,
//!   results, and the committed store — which temps were read
//!   (`warm_used`, as hits) and which were built and admitted
//!   (`materialized`) — must all agree, reuse or not.
//! * **Directed.** The third sighting reuses, the first two do not; a
//!   changed residency, a rescaled table or `clear_cache` forces a
//!   re-plan; plans with cold temps and degraded plans are never
//!   stored; the key count stays bounded, oldest key first out.

use std::sync::Arc;
use std::time::Duration;

use mqo_catalog::Catalog;
use mqo_core::{Optimizer, Options};
use mqo_exec::{
    generate_database, normalize_result, results_approx_equal, Database, MvStore, Table,
};
use mqo_logical::{Batch, LogicalPlan};
use mqo_session::{commit_staged, BatchResult, MqoSession, SessionCore, SessionOptions};
use mqo_util::FxHashMap;
use mqo_workloads::Tpcd;

const SCALE: f64 = 0.002;
const SEED: u64 = 42;

fn world() -> (Tpcd, Database) {
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, SEED, usize::MAX);
    (w, db)
}

fn concat(batches: &[Batch]) -> Batch {
    Batch::of(batches.iter().flat_map(|b| b.queries.clone()).collect())
}

/// The recurring pool: the serving stream's five windows, Q11 + Q15,
/// and Q15 + Q11.
fn pool(w: &Tpcd) -> Vec<Batch> {
    let mut pool = w.serving_batches(5);
    pool.push(concat(&[w.q11(), w.q15()]));
    pool.push(concat(&[w.q15(), w.q11()]));
    pool
}

fn results_eq(a: &[Table], b: &[Table]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| normalize_result(x) == normalize_result(y))
}

/// Every entry of a store, in fingerprint order, with the accounting a
/// commit writes.
fn entries(store: &MvStore) -> Vec<(u64, u64, u64, u64, usize)> {
    let mut v: Vec<_> = store
        .iter()
        .map(|(fp, e)| (fp, e.hits, e.last_used_batch, e.admitted_batch, e.bytes))
        .collect();
    v.sort_unstable();
    v
}

/// Serves the pool through one session under an MV budget of
/// `budget` bytes, checking every submit against a fresh core. Returns
/// (plans reused, stored plans found stale).
fn differential(budget: usize) -> (u64, u64) {
    let (w, db) = world();
    let options = SessionOptions::new().with_mv_budget_bytes(budget);
    let mut session = MqoSession::new(w.catalog.clone(), db.clone(), options.clone());
    let pool = pool(&w);
    // Four rounds over the pool, some batches twice in a row: a batch
    // meets both the residency it left and one its successors changed.
    let mut order = Vec::new();
    for round in 0..4 {
        for i in 0..pool.len() {
            order.push(i);
            if (i + round) % 3 == 0 {
                order.push(i);
            }
        }
    }
    let params = FxHashMap::default();
    // Per batch: seen before; a plan is stored for it.
    let mut seen = vec![false; pool.len()];
    let mut stored = vec![false; pool.len()];
    let (mut reused, mut stale) = (0, 0);
    for (seq, &i) in order.iter().enumerate() {
        let batch = &pool[i];
        let before = session.mv_store().clone();
        let got = session.submit(batch).expect("pool batches run");

        let mut fresh = SessionCore::new(db.clone(), options.clone())
            .plan_execute(session.catalog(), batch, &params, seq as u64, &before)
            .expect("fresh plan runs");
        let mut fresh_store = before.clone();
        commit_staged(&mut fresh_store, &mut fresh, seq as u64, options.opt.verify)
            .expect("fresh commit");
        let want = &fresh.result;

        let site = format!(
            "budget {budget}, submit {seq} (batch {i}, reused {})",
            got.plan_reused()
        );
        assert!(
            !want.plan_reused(),
            "{site}: a fresh core has nothing to reuse"
        );
        assert_eq!(
            got.cost.secs().to_bits(),
            want.cost.secs().to_bits(),
            "{site}"
        );
        assert_eq!(got.cache_hits, want.cache_hits, "{site}: warm_used");
        assert_eq!(got.temps_built, want.temps_built, "{site}: materialized");
        assert_eq!(got.stats.materialized, want.stats.materialized, "{site}");
        assert_eq!(got.stats.warm_reused, want.stats.warm_reused, "{site}");
        assert_eq!(got.stats.dag_groups, want.stats.dag_groups, "{site}");
        assert_eq!(got.rows_out, want.rows_out, "{site}");
        assert_eq!(
            (got.admitted, got.evicted, got.rejected),
            (want.admitted, want.evicted, want.rejected),
            "{site}: admissions"
        );
        assert!(results_eq(&got.results, &want.results), "{site}: results");
        assert_eq!(
            entries(session.mv_store()),
            entries(&fresh_store),
            "{site}: the commits differ"
        );
        if got.plan_reused() {
            reused += 1;
            assert_eq!(got.stats.dag_time_secs, 0.0);
            assert_eq!(got.stats.search_time_secs, 0.0);
            assert_eq!(got.temps_built, 0, "a stored plan builds no temp");
        } else {
            // A stored plan stays stored until replaced, so a miss on a
            // batch that has one means its warm set changed.
            stale += u64::from(stored[i]);
            // A re-plan of a batch seen before is stored if it builds
            // nothing.
            stored[i] |= seen[i] && got.temps_built == 0;
        }
        seen[i] = true;
    }
    assert_eq!(session.stats().plan_reuses, reused);
    (reused, stale)
}

#[test]
fn reused_plans_equal_fresh_plans_under_eviction() {
    let (mut reused, mut stale) = (0, 0);
    // Budgets at which the pool's temps evict each other.
    for budget in [128 << 10, 160 << 10] {
        let (r, s) = differential(budget);
        reused += r;
        stale += s;
    }
    assert!(reused > 0, "the recurring pool never reused a plan");
    assert!(stale > 0, "no stored plan ever went stale");
}

/// Q11 + Q15 through one session at the default budget.
fn q11_q15_session() -> (MqoSession, Batch) {
    let (w, db) = world();
    let batch = concat(&[w.q11(), w.q15()]);
    (MqoSession::new(w.catalog, db, SessionOptions::new()), batch)
}

fn same_answer(a: &BatchResult, b: &BatchResult) {
    assert_eq!(a.cost.secs().to_bits(), b.cost.secs().to_bits());
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.stats.materialized, b.stats.materialized);
    assert!(results_eq(&a.results, &b.results));
}

#[test]
fn the_third_sighting_reuses() {
    let (mut session, batch) = q11_q15_session();
    let first = session.submit(&batch).unwrap();
    let second = session.submit(&batch).unwrap();
    let third = session.submit(&batch).unwrap();
    assert!(first.temps_built > 0 && second.temps_built == 0);
    assert!(!first.plan_reused() && !second.plan_reused());
    assert!(third.plan_reused(), "the second plan read only warm temps");
    assert!(third.stats.plan_reused);
    same_answer(&second, &third);
    assert!(session.submit(&batch).unwrap().plan_reused());
    assert_eq!(session.stats().plan_reuses, 2);
    assert_eq!(session.core().cached_batches(), 1);

    // A different label is a different batch.
    let mut relabeled = batch.clone();
    relabeled.queries[0].label.push('*');
    assert!(!session.submit(&relabeled).unwrap().plan_reused());
}

/// A copy of `store` without the entry `skip`.
fn without(store: &MvStore, skip: u64) -> MvStore {
    let mut out = MvStore::new(store.budget_bytes());
    let mut kept: Vec<_> = store.iter().filter(|(fp, _)| *fp != skip).collect();
    kept.sort_by_key(|(fp, _)| *fp);
    for (fp, e) in kept {
        out.try_admit(
            fp,
            Arc::clone(&e.table),
            e.benefit_secs,
            e.charged_blocks,
            e.admitted_batch,
        )
        .unwrap();
    }
    out
}

/// The fingerprint of each query's root node in `batch`'s physical DAG.
fn query_root_fps(catalog: &Catalog, batch: &Batch) -> Vec<u64> {
    let optimizer = Optimizer::with_options(catalog, Options::new());
    let ctx = optimizer.prepare(batch);
    let plan = optimizer.search(&ctx, "Volcano").unwrap().plan;
    let groups = mqo_dag::try_group_fingerprints(&ctx.dag).unwrap();
    let fps = mqo_physical::node_fingerprints(&ctx.pdag, &groups);
    plan.query_roots.iter().map(|r| fps[r.index()]).collect()
}

#[test]
fn a_changed_residency_forces_a_re_plan() {
    let (w, db) = world();
    let batch = concat(&[w.q11(), w.q15()]);
    let core = SessionCore::new(db, SessionOptions::new());
    let params = FxHashMap::default();
    let run = |store: &MvStore, seq: u64| {
        core.plan_execute(&w.catalog, &batch, &params, seq, store)
            .unwrap()
    };
    let mut warm = MvStore::new(mqo_session::DEFAULT_MV_BUDGET_BYTES);
    let mut cold = run(&warm, 0);
    commit_staged(&mut warm, &mut cold, 0, Options::new().verify).unwrap();
    assert!(!run(&warm, 1).result.plan_reused());
    let reused = run(&warm, 2);
    assert!(reused.result.plan_reused());

    // Evicting a temp the plan reads.
    let evicted = without(&warm, reused.warm_fps[0]);
    let fewer = run(&evicted, 3);
    assert!(
        !fewer.result.plan_reused(),
        "an eviction must force a re-plan"
    );
    assert!(fewer.result.temps_built > 0, "the evicted temp is rebuilt");

    // Admitting a node of the DAG the plan did not read: a query's own
    // result, under its root's fingerprint.
    let mut more = warm.clone();
    let (q, root_fp) = query_root_fps(&w.catalog, &batch)
        .into_iter()
        .enumerate()
        .find(|&(_, fp)| !warm.contains(fp))
        .expect("some query's result is not cached");
    let answer = Arc::new(reused.result.results[q].clone());
    more.try_admit(root_fp, answer, 1.0, 1.0, 3).unwrap();
    let grown = run(&more, 4);
    assert!(
        !grown.result.plan_reused(),
        "an admission must force a re-plan"
    );
    assert!(grown.warm_fps.contains(&root_fp), "the new plan reads it");
    assert!(grown.result.cost <= reused.result.cost);
    // A different plan may sum in a different order.
    for other in [&fewer, &grown] {
        assert!(other
            .result
            .results
            .iter()
            .zip(&reused.result.results)
            .all(|(a, b)| results_approx_equal(&normalize_result(a), &normalize_result(b), 1e-9)));
    }

    // One plan per batch: the grown plan replaced the first, so going
    // back to `warm` is a residency change too, and then reuses again.
    assert!(!run(&warm, 5).result.plan_reused());
    assert!(run(&warm, 6).result.plan_reused());
}

#[test]
fn plans_with_cold_temps_or_a_degraded_search_are_never_stored() {
    let (w, db) = world();
    let batch = concat(&[w.q11(), w.q15()]);
    for options in [
        // No cache: every plan materializes its shared temps cold.
        SessionOptions::new().with_mv_budget_bytes(0),
        // A zero time budget degrades every search.
        SessionOptions::new().with_time_budget(Some(Duration::ZERO)),
    ] {
        let mut session = MqoSession::new(w.catalog.clone(), db.clone(), options);
        for _ in 0..4 {
            let r = session.submit(&batch).unwrap();
            assert!(!r.plan_reused());
            assert!(r.temps_built > 0 || r.stats.degraded);
        }
        assert_eq!(session.stats().plan_reuses, 0);
    }
}

#[test]
fn rescaling_a_table_forces_a_re_plan() {
    let (mut session, batch) = q11_q15_session();
    for _ in 0..3 {
        session.submit(&batch).unwrap();
    }
    let lineitem = session.catalog().table_by_name("lineitem").unwrap().id;
    session.catalog_mut().scale_table(lineitem, 2.0);
    let rescaled = session.submit(&batch).unwrap();
    assert!(!rescaled.plan_reused(), "new statistics, new plan");
    assert!(!session.submit(&batch).unwrap().plan_reused());
    assert!(session.submit(&batch).unwrap().plan_reused());
}

#[test]
fn clear_cache_drops_the_plans() {
    let (mut session, batch) = q11_q15_session();
    for _ in 0..3 {
        session.submit(&batch).unwrap();
    }
    assert_eq!(session.stats().plan_reuses, 1);
    session.clear_cache();
    assert_eq!(session.core().cached_batches(), 0);
    let cold = session.submit(&batch).unwrap();
    assert!(!cold.plan_reused());
    assert!(cold.temps_built > 0, "the next submit runs cold");
}

#[test]
fn the_key_count_is_bounded_and_the_oldest_key_goes_first() {
    let (w, db) = world();
    let nation = w.catalog.table_by_name("nation").unwrap().id;
    let mut session = MqoSession::new(w.catalog, db, SessionOptions::new());
    let batch = |i: usize| Batch::single(&format!("scan{i}"), LogicalPlan::scan(nation));
    session.submit(&batch(0)).unwrap();
    session.submit(&batch(0)).unwrap();
    assert!(session.submit(&batch(0)).unwrap().plan_reused());
    for i in 1..=256 {
        session.submit(&batch(i)).unwrap();
        assert!(session.core().cached_batches() <= 256);
    }
    assert_eq!(session.core().cached_batches(), 256);
    assert!(
        !session.submit(&batch(0)).unwrap().plan_reused(),
        "the first key in was the first out"
    );
    // Re-remembering key 0 forgot key 1, not the younger key 256.
    assert_eq!(session.core().cached_batches(), 256);
    assert!(!session.submit(&batch(256)).unwrap().plan_reused());
    assert!(session.submit(&batch(256)).unwrap().plan_reused());
}
