//! Concurrent serving throughput: N tenants submitting the same warm
//! job through one `ServeFront`, at 1 / 4 / 16 clients.
//!
//! Every round coalesces the concurrent submissions into shared MQO
//! batches: the first round finds nobody expected and forms at once;
//! from then on each client is expected back, so a round forms when its
//! last client has resubmitted or 16 queries are queued (the 2 ms
//! window is only the ceiling).
//! The client whose resubmit completes a round runs that round's batch
//! on its own thread and answers the others. The per-round time growing
//! *sublinearly* in the client count is the serving front doing its
//! job: strangers share one optimizer pass and the warm MvStore instead
//! of timeslicing the engine.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use mqo_exec::generate_database;
use mqo_serve::{ServeFront, ServeOptions};
use mqo_workloads::Tpcd;

const SQL: &str = "\
    SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
    FROM partsupp, supplier, nation \
    WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
      AND n_name = 'n_name_000007' \
    GROUP BY ps_partkey ORDER BY value DESC; \
    SELECT SUM(ps_supplycost * ps_availqty) AS value \
    FROM partsupp, supplier, nation \
    WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
      AND n_name = 'n_name_000007';";

fn bench_serving_concurrent(c: &mut Criterion) {
    let w = Tpcd::new(0.002);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let front = Arc::new(ServeFront::new(w.catalog, db, ServeOptions::new()));
    front.submit_sql("warmup", SQL).expect("warmup submit");

    let mut g = c.benchmark_group("serving_concurrent");
    for clients in [1usize, 4, 16] {
        g.bench_function(format!("clients/{clients}"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..clients)
                    .map(|i| {
                        let front = Arc::clone(&front);
                        std::thread::spawn(move || {
                            front
                                .submit_sql(&format!("client-{i}"), SQL)
                                .expect("warm submit")
                                .len()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .sum::<usize>()
            })
        });
    }
    g.finish();
    front.shutdown();
}

criterion_group!(benches, bench_serving_concurrent);
criterion_main!(benches);
