//! End-to-end: optimize a batch and execute it unshared vs shared,
//! verify the results agree, and report the actual speedup (the
//! mechanism behind the paper's Figure 7) — now on the `MqoSession`
//! facade, which folds expand → search → extract → execute into one
//! `submit` call per batch.
//!
//! Two sessions run the same batch over the same generated database:
//! one searching with Volcano (no sharing — the baseline), one with
//! Greedy (shared temps). A second Greedy submit then shows the serving
//! dimension the session adds on top of Figure 7: the temps of the
//! first submit are served warm from the MvStore, so the repeat batch
//! builds nothing.
//!
//! Run with: `cargo run --release --example execute_shared`

use mqo::exec::{generate_database, normalize_result, results_approx_equal, ExecMode, ExecOptions};
use mqo::session::{MqoSession, SessionOptions};
use mqo::workloads::Tpcd;

fn main() {
    // Small scale so data generation stays fast; statistics match data.
    let w = Tpcd::new(0.01);
    let batch = w.q11();

    println!("generating data for {} tables…", w.catalog.tables().len());
    let db = generate_database(&w.catalog, 7, usize::MAX);
    let exec = ExecOptions::from_env();
    match exec.mode {
        ExecMode::Vectorized => println!("engine: vectorized columnar"),
        ExecMode::Row => println!("engine: legacy row-at-a-time (MQO_EXEC_MODE=row)"),
    }

    let mut unshared_session = MqoSession::new(
        w.catalog.clone(),
        db.clone(),
        SessionOptions::new().with_strategy("Volcano"),
    );
    let mut shared_session = MqoSession::new(w.catalog, db, SessionOptions::new());

    let unshared = unshared_session.submit(&batch).unwrap();
    let shared = shared_session.submit(&batch).unwrap();

    // Sharing must never change results.
    assert_eq!(unshared.results.len(), shared.results.len());
    for (a, b) in unshared.results.iter().zip(shared.results.iter()) {
        // float aggregates may differ in the last bit (summation order)
        assert!(
            results_approx_equal(&normalize_result(a), &normalize_result(b), 1e-9),
            "results diverged!"
        );
    }

    println!("Q11-like batch ({} queries):", batch.len());
    println!(
        "  unshared execution: {:>8.1} ms ({} rows)",
        unshared.exec_wall.as_secs_f64() * 1e3,
        unshared.rows_out
    );
    println!(
        "  shared execution:   {:>8.1} ms ({} rows, {} temp(s) materialized)",
        shared.exec_wall.as_secs_f64() * 1e3,
        shared.rows_out,
        shared.temps_built
    );
    println!(
        "  speedup: {:.2}x — identical results verified row by row",
        unshared.exec_wall.as_secs_f64() / shared.exec_wall.as_secs_f64()
    );

    // The serving dimension: the same batch again, now warm.
    let warm = shared_session.submit(&batch).unwrap();
    assert!(warm.cache_hits > 0 && warm.temps_built == 0);
    println!(
        "  warm re-submit:     {:>8.1} ms ({} cache hit(s), 0 temps built, est cost {} vs {})",
        warm.exec_wall.as_secs_f64() * 1e3,
        warm.cache_hits,
        warm.cost,
        shared.cost
    );
}
