//! Malformed `MQO_*` environment must cost a warning counter, not the
//! process: the session falls back to defaults and keeps answering
//! correctly. Lives in its own integration-test binary (own process)
//! because the environment snapshot is cached per process.

use mqo_exec::{generate_database, normalize_result, ExecMode};
use mqo_session::{MqoSession, SessionOptions};
use mqo_workloads::no_overlap;

#[test]
fn malformed_env_falls_back_to_defaults_and_counts() {
    // Set before anything reads the environment (single test in this
    // binary, so no race with other tests' caches).
    std::env::set_var("MQO_EXEC_MODE", "banana");
    std::env::set_var("MQO_TIME_BUDGET_MS", "fast");
    std::env::set_var("MQO_MEM_BUDGET", "lots");

    let (cat, batch) = no_overlap();
    let db = generate_database(&cat, 42, usize::MAX);

    // Reference session with pinned knobs (ignores the environment).
    let mut pinned = MqoSession::new(
        cat.clone(),
        db.clone(),
        SessionOptions::new()
            .with_exec_mode(ExecMode::Vectorized)
            .with_time_budget(None)
            .with_mem_budget(None),
    );
    let want = pinned.submit(&batch).expect("pinned run");

    // Environment-driven session: exec knobs fall back per submit, the
    // two budget typos are counted once at open.
    let mut env = MqoSession::new(cat, db, SessionOptions::new());
    assert_eq!(
        env.stats().env_fallbacks,
        2,
        "both malformed budget variables counted at open"
    );
    let got = env.submit(&batch).expect("malformed env is not fatal");
    assert!(
        !got.degraded,
        "budget typos mean no budget, not budget zero"
    );
    assert_eq!(
        env.stats().env_fallbacks,
        3,
        "the submit's engine-knob fallback is counted too"
    );
    for (a, b) in got.results.iter().zip(&want.results) {
        assert_eq!(normalize_result(a), normalize_result(b));
    }
}
