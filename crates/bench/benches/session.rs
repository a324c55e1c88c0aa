//! Session throughput: what one `submit` costs cold vs warm.
//!
//! `cold_submit` clears the MvStore before every submit — the full
//! expand → search → extract → execute → admit pipeline with no reuse.
//! `warm_submit` re-submits the same batch against a populated cache —
//! steady-state serving, where the plan reads every shared temp
//! zero-copy and, the batch having recurred, is the plan stored for it.
//! The gap between the two is the session's reason to exist.
//! `warm_submit_first_sight` is the same warm submit with a fresh label
//! every iteration: the same plan, but a batch never seen before, so it
//! is planned in full and pays what recording the sighting adds.

use criterion::{criterion_group, criterion_main, Criterion};
use mqo_exec::generate_database;
use mqo_session::{MqoSession, SessionOptions};
use mqo_workloads::Tpcd;

fn session_at(scale: f64) -> (MqoSession, mqo_logical::Batch) {
    let w = Tpcd::new(scale);
    let batch = w.serving_batches(1).remove(0);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    (MqoSession::new(w.catalog, db, SessionOptions::new()), batch)
}

fn bench_session(c: &mut Criterion) {
    let mut g = c.benchmark_group("session");
    {
        let (mut session, batch) = session_at(0.002);
        g.bench_function("cold_submit", |b| {
            b.iter(|| {
                session.clear_cache();
                session.submit(&batch).unwrap()
            })
        });
    }
    {
        let (mut session, batch) = session_at(0.002);
        session.submit(&batch).unwrap(); // populate the cache
        g.bench_function("warm_submit", |b| {
            b.iter(|| session.submit(&batch).unwrap())
        });
    }
    {
        let (mut session, mut batch) = session_at(0.002);
        session.submit(&batch).unwrap(); // populate the cache
        let mut fresh = 0u64;
        g.bench_function("warm_submit_first_sight", |b| {
            b.iter(|| {
                fresh += 1;
                batch.queries[0].label = format!("first-sight-{fresh}");
                session.submit(&batch).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
