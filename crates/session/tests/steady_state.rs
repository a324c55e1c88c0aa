//! Steady-state serving: the acceptance suite of the `MqoSession`
//! tentpole.
//!
//! * A warm session re-submitting an overlapping batch must be
//!   measurably cheaper than a cold one: cache hits > 0, fewer temps
//!   built, optimizer-estimated cost ≤ the cold plan's — with results
//!   identical to the cold run's.

use mqo_core::{Options, VerifyLevel};
use mqo_exec::{generate_database, normalize_result, results_approx_equal, ExecMode};
use mqo_expr::{ParamId, Value};
use mqo_session::{BatchResult, MqoSession, SessionCore, SessionOptions};
use mqo_util::{ErrorStage, FxHashMap, MqoErrorKind};
use mqo_workloads::Tpcd;

const SCALE: f64 = 0.002;

/// Every session in this suite runs with Full verification: each submit
/// checks the batch, DAG, physical DAG, cost table, extracted plan and
/// the MvStore, panicking with a rendered diagnostic on any violation.
fn verified() -> SessionOptions {
    SessionOptions::new().with_opt(Options::new().with_verify(VerifyLevel::Full))
}

/// One run of the serving stream on the vectorized engine; returns
/// per-batch observables.
fn run_stream(rounds: usize) -> Vec<BatchResult> {
    let w = Tpcd::new(SCALE);
    let batches = w.serving_batches(rounds);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let opts = verified().with_exec_mode(ExecMode::Vectorized);
    let mut session = MqoSession::new(w.catalog, db, opts);
    batches
        .iter()
        .map(|b| session.submit(b).expect("Greedy is registered"))
        .collect()
}

/// The headline acceptance: re-submitting the same batch to a warm
/// session is cheaper on every axis the optimizer controls, and the
/// answers do not change.
#[test]
fn warm_resubmit_is_cheaper_and_identical() {
    let w = Tpcd::new(SCALE);
    let batch = w.serving_batches(1).remove(0);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let mut session = MqoSession::new(w.catalog, db, verified());

    let cold = session.submit(&batch).unwrap();
    assert!(cold.temps_built > 0, "cold batch materializes shared temps");
    assert!(cold.admitted > 0, "cold temps enter the MvStore");
    assert_eq!(cold.cache_hits, 0, "nothing is warm on the first batch");

    let warm = session.submit(&batch).unwrap();
    assert!(warm.cache_hits > 0, "identical batch must hit the cache");
    assert!(
        warm.temps_built < cold.temps_built,
        "warm batch re-materializes less: {} !< {}",
        warm.temps_built,
        cold.temps_built
    );
    assert!(
        warm.cost <= cold.cost,
        "warm estimated cost must not exceed cold: {} > {}",
        warm.cost,
        cold.cost
    );
    assert_eq!(warm.rows_out, cold.rows_out);
    for (a, b) in cold.results.iter().zip(warm.results.iter()) {
        assert!(
            results_approx_equal(&normalize_result(a), &normalize_result(b), 1e-9),
            "warm results diverged from cold"
        );
    }
    let stats = session.stats();
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.cache_hits, warm.cache_hits as u64);
    assert!(stats.mv_entries > 0 && stats.mv_bytes_used > 0);
}

/// Consecutive *overlapping* (not identical) batches also serve their
/// shared pair from the cache.
#[test]
fn overlapping_stream_hits_across_batches() {
    let results = run_stream(4);
    let later_hits: usize = results[1..].iter().map(|r| r.cache_hits).sum();
    assert!(
        later_hits > 0,
        "overlapping consecutive batches must produce warm hits"
    );
    // estimated optimizer cost of a warm batch never exceeds what the
    // same session would pay cold: batch 5 repeats batch 0's window
    // (i mod 5 wraps), so compare the wrapped round trip
    let wrapped = run_stream(6);
    assert!(
        wrapped[5].cost <= wrapped[0].cost,
        "wrapped window must be no more expensive warm ({} > {})",
        wrapped[5].cost,
        wrapped[0].cost
    );
}

/// A tight byte budget forces deterministic eviction/rejection instead
/// of unbounded growth.
#[test]
fn budget_is_respected_under_pressure() {
    let w = Tpcd::new(SCALE);
    let batches = w.serving_batches(6);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let mut session = MqoSession::new(
        w.catalog,
        db,
        verified().with_mv_budget_bytes(64 << 10), // 64 KiB
    );
    let mut churn = 0usize;
    for b in &batches {
        let r = session.submit(b).unwrap();
        churn += r.evicted + r.rejected;
        let stats = session.stats();
        assert!(
            stats.mv_bytes_used <= stats.mv_budget_bytes,
            "cache exceeded its budget: {} > {}",
            stats.mv_bytes_used,
            stats.mv_budget_bytes
        );
    }
    assert!(
        churn > 0,
        "a 64 KiB budget must trigger evictions or rejections"
    );
}

/// A zero budget turns the session into a per-batch optimizer: never a
/// hit, always correct.
#[test]
fn zero_budget_disables_cross_batch_reuse() {
    let w = Tpcd::new(SCALE);
    let batch = w.serving_batches(1).remove(0);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let mut session = MqoSession::new(w.catalog, db, verified().with_mv_budget_bytes(0));
    let a = session.submit(&batch).unwrap();
    let b = session.submit(&batch).unwrap();
    assert_eq!(b.cache_hits, 0);
    assert_eq!(a.temps_built, b.temps_built);
    assert_eq!(a.cost.secs().to_bits(), b.cost.secs().to_bits());
}

/// The KS15 strategy plans around the warm cache too (the warm seeding
/// is strategy-generic, not a Greedy special case).
#[test]
fn ks15_strategy_also_serves_warm() {
    let w = Tpcd::new(SCALE);
    let batch = w.serving_batches(1).remove(0);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let mut session = MqoSession::new(w.catalog, db, verified().with_strategy("KS15-Greedy"));
    let cold = session.submit(&batch).unwrap();
    let warm = session.submit(&batch).unwrap();
    assert!(cold.temps_built > 0);
    assert!(warm.cache_hits > 0, "KS15 must reuse the warm cache");
    assert!(warm.cost <= cold.cost);
}

/// `OptStats::candidates` counts the pool a strategy actually probes,
/// so on a warm resubmit it leaves out the warm variants: Greedy and
/// KS15 report the same count against the same warm store, and it is
/// the cold count minus the temps the cold submit cached.
#[test]
fn warm_candidates_exclude_the_warm_variants() {
    let w = Tpcd::new(SCALE);
    let batch = w.serving_batches(1).remove(0);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let mut session = MqoSession::new(w.catalog, db.clone(), verified());
    let cold = session.submit(&batch).unwrap();
    let warm_variants = session.mv_store().len();
    assert!(warm_variants > 0, "the cold submit cached its temps");
    let warm = session.submit(&batch).unwrap();
    assert!(!warm.plan_reused(), "the second sighting is searched");

    let ks15 = SessionCore::new(db, verified().with_strategy("KS15-Greedy"))
        .plan_execute(
            session.catalog(),
            &batch,
            &FxHashMap::default(),
            2,
            session.mv_store(),
        )
        .unwrap()
        .result;
    assert_eq!(warm.stats.candidates, ks15.stats.candidates);
    assert_eq!(warm.stats.candidates, cold.stats.candidates - warm_variants);
}

/// Unknown strategy names fail loudly, not silently cold.
#[test]
fn unknown_strategy_is_an_error() {
    let w = Tpcd::new(SCALE);
    let batch = w.serving_batches(1).remove(0);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let mut session = MqoSession::new(
        w.catalog,
        db,
        SessionOptions::new().with_strategy("Simulated-Annealing"),
    );
    assert!(session.submit(&batch).is_err());
}

/// An unbound `Param` is a typed `PlanBroken` error at the execute
/// stage naming the parameter — it used to panic inside the operators —
/// and, like every failed submit, it leaves the cache exactly as it was
/// and the session usable.
#[test]
fn unbound_parameter_is_a_typed_error_and_leaves_the_store_untouched() {
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let warmup = w.serving_batches(1).remove(0);
    let q2 = w.q2();
    let mut session = MqoSession::new(w.catalog, db, verified());
    session.submit(&warmup).unwrap();
    let store = |s: &MqoSession| (s.mv_store().len(), s.mv_store().bytes_used());
    let before = store(&session);
    assert!(before.0 > 0, "the warm-up admitted temps");

    let err = session.submit(&q2).expect_err("Q2 reads :0");
    assert_eq!(err.kind, MqoErrorKind::PlanBroken);
    assert_eq!(err.stage, ErrorStage::Execute);
    assert!(err.message.contains("parameter :0"), "{}", err.render());
    assert_eq!(store(&session), before);

    let mut params = FxHashMap::default();
    params.insert(ParamId(0), Value::Int(1));
    let bound = session.submit_with_params(&q2, &params).unwrap();
    assert!(bound.query_errors.iter().all(Option::is_none));
}
