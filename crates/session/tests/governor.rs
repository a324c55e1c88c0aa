//! The per-submit resource governor: budget expiry must *degrade*, not
//! fail — and degradation must stay deterministic.
//!
//! * A zero time budget is the extreme case: the search degrades at its
//!   first checkpoint (committing the empty, Volcano-quality
//!   materialization set) and the already-expired deadline is dropped
//!   before execution — so every query still answers, exactly.
//! * Degradation under a zero budget is wall-clock-free, so the same
//!   governed stream, run twice, must be bit-identical.
//! * A tiny memory budget aborts the queries that trip it (empty
//!   placeholder result + recorded error) but never the batch or the
//!   session.

use mqo_core::{Options, VerifyLevel};
use mqo_exec::{generate_database, normalize_result, results_approx_equal, ExecMode};
use mqo_session::{BatchResult, MqoSession, SessionOptions};
use mqo_workloads::Tpcd;
use std::time::Duration;

const SCALE: f64 = 0.002;

fn session_with(time_budget: Option<Duration>, mem: Option<usize>) -> MqoSession {
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let opts = SessionOptions::new()
        .with_opt(Options::new().with_verify(VerifyLevel::Full))
        .with_exec_mode(ExecMode::Vectorized)
        .with_time_budget(time_budget)
        .with_mem_budget(mem);
    MqoSession::new(w.catalog, db, opts)
}

fn run_stream(time_budget: Option<Duration>) -> Vec<BatchResult> {
    let w = Tpcd::new(SCALE);
    let batches = w.serving_batches(3);
    let mut s = session_with(time_budget, None);
    batches
        .iter()
        .map(|b| s.submit(b).expect("budget expiry degrades, never errors"))
        .collect()
}

/// Zero budget ⇒ the search commits best-so-far (no materializations:
/// Volcano-quality cost) and every query still returns its exact rows.
#[test]
fn zero_time_budget_degrades_to_exact_volcano_quality_answers() {
    let governed = run_stream(Some(Duration::ZERO));
    let free = run_stream(None);
    for (g, f) in governed.iter().zip(&free) {
        assert!(g.degraded, "zero budget must flag degradation");
        assert!(g.stats.degraded, "the search itself degraded");
        assert!(
            g.query_errors.iter().all(Option::is_none),
            "an expired deadline is dropped before execution: no aborts"
        );
        // degraded search can only cost more (it stopped early)...
        assert!(g.cost >= f.cost);
        // ...but the answers agree (to float-summation-order ulps:
        // the unshared plan aggregates in a different operator order)
        assert_eq!(g.results.len(), f.results.len());
        for (a, b) in g.results.iter().zip(&f.results) {
            assert!(results_approx_equal(
                &normalize_result(a),
                &normalize_result(b),
                1e-9
            ));
        }
    }
}

/// Governed degradation is deterministic: the same zero-budget stream,
/// run twice, is bit-identical.
#[test]
fn governed_stream_is_deterministic_across_runs() {
    let first = run_stream(Some(Duration::ZERO));
    let second = run_stream(Some(Duration::ZERO));
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.temps_built, b.temps_built);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(normalize_result(x), normalize_result(y));
        }
    }
}

/// A memory budget no real intermediate fits under: every query aborts
/// with a typed budget error and an empty placeholder, the batch and
/// session survive, and the counters record the event.
#[test]
fn tiny_mem_budget_aborts_queries_not_the_batch() {
    let w = Tpcd::new(SCALE);
    let batches = w.serving_batches(1);
    let mut s = session_with(None, Some(1));
    let r = s
        .submit(&batches[0])
        .expect("mem exhaustion degrades, never errors");
    assert!(r.degraded);
    let aborted = r.query_errors.iter().flatten().count();
    assert!(aborted > 0, "a 1-byte budget must abort something");
    for (t, e) in r.results.iter().zip(&r.query_errors) {
        if let Some(err) = e {
            assert!(err.is_budget(), "abort reason is a budget error: {err}");
            assert!(t.is_empty(), "aborted query gets an empty placeholder");
        }
    }
    let stats = s.stats();
    assert_eq!(stats.degraded_submits, 1);
    assert_eq!(stats.query_aborts, aborted as u64);
    assert_eq!(stats.failed_submits, 0, "degradation is not failure");
    // the session keeps serving
    let again = s.submit(&batches[0]).expect("still usable");
    assert!(again.degraded);
}
