//! Serving-front integration tests, in-process (no TCP): the
//! determinism contract (concurrent multi-tenant serving returns each
//! client bits identical to a serial solo session), cross-tenant cache
//! sharing, and end-to-end fairness under a flooding tenant.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use mqo_exec::generate_database;
use mqo_serve::{FormerConfig, QueryResult, ServeFront, ServeOptions};
use mqo_session::{MqoSession, SessionOptions};
use mqo_sql::{apply_order, to_batch, SqlPlanner};
use mqo_workloads::Tpcd;

const SCALE: f64 = 0.002;
const SEED: u64 = 42;

/// The job corpus: overlapping TPC-D statement lists. Tenants submit
/// different interleavings of these, so the former coalesces strangers
/// with shared subexpressions — the exact situation whose result bits
/// must not change.
const Q11_PAIR: &str = "\
    SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
    FROM partsupp, supplier, nation \
    WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
      AND n_name = 'n_name_000007' \
    GROUP BY ps_partkey ORDER BY value DESC; \
    SELECT SUM(ps_supplycost * ps_availqty) AS value \
    FROM partsupp, supplier, nation \
    WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
      AND n_name = 'n_name_000007';";

const Q15_PAIR: &str = "\
    SELECT MAX(rev) AS maxrev \
    FROM (SELECT l_suppkey, SUM(l_extendedprice * (1.0 - l_discount)) AS rev \
          FROM lineitem WHERE l_shipdate >= 1000 AND l_shipdate < 1090 \
          GROUP BY l_suppkey); \
    SELECT s_suppkey, l_suppkey, rev \
    FROM supplier \
    JOIN (SELECT l_suppkey, SUM(l_extendedprice * (1.0 - l_discount)) AS rev \
          FROM lineitem WHERE l_shipdate >= 1000 AND l_shipdate < 1090 \
          GROUP BY l_suppkey) ON s_suppkey = l_suppkey \
    ORDER BY rev DESC;";

const ORDERS_AGG: &str = "\
    SELECT o_orderdate, SUM(l_quantity) AS qty \
    FROM orders, lineitem WHERE o_orderkey = l_orderkey \
    GROUP BY o_orderdate ORDER BY o_orderdate;";

/// Per-tenant job scripts (tenant name, jobs in submit order). Jobs
/// recur, so formed batches do too.
fn scripts() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("alice", vec![Q11_PAIR, ORDERS_AGG, Q11_PAIR, Q11_PAIR]),
        ("bob", vec![Q15_PAIR, Q11_PAIR, ORDERS_AGG, Q15_PAIR]),
        ("carol", vec![ORDERS_AGG, Q15_PAIR, Q15_PAIR, ORDERS_AGG]),
        ("dave", vec![Q11_PAIR, Q15_PAIR, ORDERS_AGG, Q11_PAIR]),
    ]
}

/// A lone tenant's steady tail after the concurrent phase: one job,
/// resubmitted alone until its batch is answered with a stored plan.
const STEADY: (&str, [&str; 3]) = ("steady", [Q15_PAIR; 3]);

/// A statement list containing every distinct query once — submitted
/// first in BOTH runs so derived-column registration order (hence every
/// ColId) is pinned identically, independent of tenant-thread timing.
fn warmup_sql() -> String {
    format!("{Q11_PAIR} {Q15_PAIR} {ORDERS_AGG}")
}

/// Canonical render of one query's output: column names + the Debug
/// form of every row value, which round-trips f64 bits exactly.
fn canon(columns: &[String], rows: &[Vec<mqo_expr::Value>]) -> String {
    let mut s = format!("[{}]\n", columns.join(","));
    for row in rows {
        s.push_str(&format!("{row:?}\n"));
    }
    s
}

fn canon_results(results: &[QueryResult]) -> Vec<String> {
    results.iter().map(|r| canon(&r.columns, &r.rows)).collect()
}

/// Serial reference: one solo `MqoSession`, jobs submitted one at a
/// time in a fixed tenant order. Returns `tenant → per-job canon`.
fn serial_reference() -> BTreeMap<String, Vec<Vec<String>>> {
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, SEED, usize::MAX);
    let mut session = MqoSession::new(w.catalog, db, SessionOptions::new());
    let mut planner = SqlPlanner::new();

    let mut run = |sql: &str| -> Vec<String> {
        let planned = planner
            .plan_text(session.catalog_mut(), sql)
            .expect("corpus SQL plans");
        let batch = to_batch(&planned);
        let r = session.submit(&batch).expect("serial submit");
        planned
            .iter()
            .zip(&r.results)
            .map(|(pq, table)| {
                let table = if pq.order_by.is_empty() {
                    table.clone()
                } else {
                    apply_order(table, &pq.order_by)
                };
                let columns: Vec<String> = table
                    .schema
                    .iter()
                    .map(|&c| session.catalog().column(c).name.clone())
                    .collect();
                let rows: Vec<Vec<mqo_expr::Value>> =
                    (0..table.len()).map(|i| table.row(i)).collect();
                canon(&columns, &rows)
            })
            .collect()
    };

    run(&warmup_sql());
    let mut out = BTreeMap::new();
    for (tenant, jobs) in scripts() {
        let per_job: Vec<Vec<String>> = jobs.iter().map(|sql| run(sql)).collect();
        out.insert(tenant.to_string(), per_job);
    }
    let (tenant, jobs) = STEADY;
    out.insert(
        tenant.to_string(),
        jobs.iter().map(|sql| run(sql)).collect(),
    );
    out
}

fn front(former: FormerConfig) -> ServeFront {
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, SEED, usize::MAX);
    ServeFront::new(w.catalog, db, ServeOptions::new().with_former(former))
}

/// THE acceptance test: N concurrent tenants with interleaved
/// overlapping jobs get results **bit-identical** to a serial solo
/// session, even though the former coalesces their queries into shared
/// MQO batches against an evolving warm cache.
#[test]
fn concurrent_tenants_bit_identical_to_serial_session() {
    let reference = serial_reference();

    let front = Arc::new(front(FormerConfig {
        window: Duration::from_millis(2),
        max_batch_queries: 12,
        tenant_share: 8,
        tenant_pending: 4,
    }));
    // Pin ColIds exactly like the reference run did.
    front
        .submit_sql("warmup", &warmup_sql())
        .expect("warmup submit");

    let handles: Vec<_> = scripts()
        .into_iter()
        .map(|(tenant, jobs)| {
            let front = Arc::clone(&front);
            std::thread::spawn(move || {
                let per_job: Vec<Vec<String>> = jobs
                    .iter()
                    .map(|sql| {
                        let results = front
                            .submit_sql(tenant, sql)
                            .expect("serving submit succeeds");
                        canon_results(&results)
                    })
                    .collect();
                (tenant.to_string(), per_job)
            })
        })
        .collect();
    let mut served = BTreeMap::new();
    for h in handles {
        let (tenant, per_job) = h.join().expect("tenant thread");
        served.insert(tenant, per_job);
    }
    let (tenant, jobs) = STEADY;
    let steady = jobs
        .iter()
        .map(|sql| canon_results(&front.submit_sql(tenant, sql).expect("steady submit")))
        .collect();
    served.insert(tenant.to_string(), steady);
    front.shutdown();

    for (tenant, ref_jobs) in &reference {
        let got = served.get(tenant).expect("tenant served");
        assert_eq!(got.len(), ref_jobs.len(), "{tenant}: job count");
        for (j, (got_job, ref_job)) in got.iter().zip(ref_jobs).enumerate() {
            assert_eq!(
                got_job, ref_job,
                "{tenant} job {j}: serving bits differ from serial session"
            );
        }
    }

    // The runs shared structure, not just correctness: batches formed,
    // the cache took hits across tenants, and recurring batches ran
    // their stored plans.
    let (totals, tenants) = front.stats();
    assert!(totals.batches > 0);
    assert!(totals.cache_hits > 0, "no warm sharing happened");
    assert!(totals.plan_reuses > 0, "no recurring batch reused its plan");
    assert_eq!(tenants.len(), 6, "4 tenants + warmup + steady have ledgers");
}

/// Cross-tenant cache sharing, sequentially (no forming races): alice
/// builds the temps cold, bob's identical job runs warm off them and
/// returns the same bits.
#[test]
fn one_tenants_temps_serve_another() {
    let front = front(FormerConfig::default());
    let a = front.submit_sql("alice", Q11_PAIR).expect("cold");
    let before = front.stats().0;
    let b = front.submit_sql("bob", Q11_PAIR).expect("warm");
    let after = front.stats().0;

    assert_eq!(
        canon_results(&a),
        canon_results(&b),
        "warm bits == cold bits"
    );
    assert!(
        after.cache_hits > before.cache_hits,
        "bob's batch should hit alice's temps ({before:?} → {after:?})"
    );
    assert!(
        after.temps_built - before.temps_built < before.temps_built,
        "the warm batch must rebuild less than alice's cold one \
         ({before:?} → {after:?})"
    );
    let (_, tenants) = front.stats();
    assert!(tenants.get("bob").is_some_and(|t| t.cache_hits > 0));
    front.shutdown();
}

/// End-to-end fairness: a flooding tenant saturating its pending cap
/// cannot starve a victim tenant — every victim submit completes, and
/// the flood sees typed Overloaded backpressure rather than unbounded
/// queueing.
#[test]
fn flooding_tenant_cannot_starve_a_victim() {
    let front = Arc::new(front(FormerConfig {
        window: Duration::from_millis(1),
        max_batch_queries: 6,
        tenant_share: 4,
        tenant_pending: 2,
    }));
    front.submit_sql("warmup", &warmup_sql()).expect("warmup");

    let flooders: Vec<_> = (0..3)
        .map(|_| {
            let front = Arc::clone(&front);
            std::thread::spawn(move || {
                let mut overloaded = 0u32;
                for _ in 0..10 {
                    match front.submit_sql("flooder", ORDERS_AGG) {
                        Ok(_) => {}
                        Err(e) => {
                            assert_eq!(e.kind, mqo_util::MqoErrorKind::Overloaded);
                            overloaded += 1;
                        }
                    }
                }
                overloaded
            })
        })
        .collect();

    // The victim submits sequentially while the flood is running.
    let mut victim_ok = 0u32;
    for _ in 0..5 {
        front
            .submit_sql("victim", Q11_PAIR)
            .expect("victim submit must not starve or fail");
        victim_ok += 1;
    }
    for f in flooders {
        f.join().expect("flooder thread");
    }
    assert_eq!(victim_ok, 5);
    let (_, tenants) = front.stats();
    let victim = tenants.get("victim").copied().unwrap_or_default();
    assert_eq!(victim.queries, 10, "5 jobs × 2 queries all executed");
    assert_eq!(victim.failed, 0);
    front.shutdown();
}

/// A silent co-rider strands nobody: alice and bob ride one batch, then
/// only alice comes back. Her job waits for bob until its deadline, one
/// window, and is then formed and run by her own thread — the front
/// has no other.
#[test]
fn job_whose_co_rider_never_returns_is_formed_by_its_own_thread() {
    use std::sync::mpsc;
    use std::time::Instant;

    let window = Duration::from_secs(1);
    let front = Arc::new(front(FormerConfig {
        window,
        max_batch_queries: 2,
        tenant_share: 8,
        tenant_pending: 4,
    }));
    // carol rides alone and never returns: while she is expected,
    // alice's and bob's one-query jobs wait, and the second of them
    // fills the two-query cap.
    front
        .submit_sql("carol", ORDERS_AGG)
        .expect("carol's submit");
    let riders: Vec<_> = ["alice", "bob"]
        .into_iter()
        .map(|tenant| {
            let front = Arc::clone(&front);
            std::thread::spawn(move || front.submit_sql(tenant, ORDERS_AGG))
        })
        .collect();
    for rider in riders {
        rider.join().expect("rider thread").expect("rider's submit");
    }
    let (before, _) = front.stats();
    assert_eq!(before.batches, 2, "alice and bob rode one batch");

    let (done_tx, done_rx) = mpsc::channel();
    {
        let front = Arc::clone(&front);
        std::thread::spawn(move || {
            let start = Instant::now();
            let outcome = front.submit_sql("alice", ORDERS_AGG);
            done_tx.send((outcome, start.elapsed())).ok();
        });
    }
    let (outcome, waited) = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("alice's job was stranded");
    outcome.expect("alice's resubmit");
    assert!(
        waited >= window,
        "formed before bob stopped being expected: {waited:?}"
    );
    assert_eq!(front.stats().0.batches, before.batches + 1);
    front.shutdown();
}

/// Shutdown answers rather than abandons: jobs submitted after
/// shutdown get a typed Shutdown error, and shutdown is idempotent.
#[test]
fn shutdown_is_typed_and_idempotent() {
    let front = front(FormerConfig::default());
    front.submit_sql("alice", ORDERS_AGG).expect("pre-shutdown");
    front.shutdown();
    let e = front.submit_sql("alice", ORDERS_AGG).unwrap_err();
    assert_eq!(e.kind, mqo_util::MqoErrorKind::Shutdown);
    front.shutdown(); // second call is a no-op
}

/// Shutdown under load, with a watchdog: four tenants submit in a loop,
/// `shutdown()` lands once every one of them has traffic in flight,
/// every call returns `Ok` or a typed `Shutdown`, and every thread is
/// back within 5 s. Each batch runs on the thread that formed it; a
/// leader that failed to answer a rider, or a drained job left
/// unanswered, would hang that rider — which must fail this test, not
/// hang the suite.
#[test]
fn shutdown_under_load_answers_everyone_and_joins() {
    use std::sync::mpsc;

    const TENANTS: [&str; 4] = ["alice", "bob", "carol", "dave"];
    let front = Arc::new(front(FormerConfig::default()));
    front.submit_sql("warmup", &warmup_sql()).expect("warmup");

    let (progress_tx, progress_rx) = mpsc::channel::<&'static str>();
    let (done_tx, done_rx) = mpsc::channel::<Result<&'static str, mqo_util::MqoError>>();
    for tenant in TENANTS {
        let front = Arc::clone(&front);
        let progress_tx = progress_tx.clone();
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            let jobs = [Q11_PAIR, ORDERS_AGG, Q15_PAIR];
            let mut next = 0;
            let outcome = loop {
                next = (next + 1) % jobs.len();
                match front.submit_sql(tenant, jobs[next]) {
                    Ok(_) => progress_tx.send(tenant).ok(),
                    Err(e) if e.kind == mqo_util::MqoErrorKind::Shutdown => break Ok(tenant),
                    Err(e) => break Err(e),
                };
            };
            done_tx.send(outcome).ok();
        });
    }

    // Let every tenant get answers before the shutdown lands, so it
    // arrives with jobs queued and batches in flight.
    let watchdog = Duration::from_secs(5);
    let mut answered = BTreeMap::new();
    while answered.len() < TENANTS.len() || answered.values().any(|&n| n < 3) {
        let tenant = progress_rx
            .recv_timeout(watchdog)
            .expect("tenants make progress");
        *answered.entry(tenant).or_insert(0u32) += 1;
    }
    {
        let front = Arc::clone(&front);
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            front.shutdown();
            done_tx.send(Ok("shutdown")).ok();
        });
    }

    let mut back = Vec::new();
    for _ in 0..=TENANTS.len() {
        let outcome = done_rx
            .recv_timeout(watchdog)
            .unwrap_or_else(|e| panic!("hung after {back:?} returned: {e}"));
        back.push(outcome.unwrap_or_else(|e| panic!("neither Ok nor a typed Shutdown: {e}")));
    }
    let e = front.submit_sql("alice", ORDERS_AGG).unwrap_err();
    assert_eq!(e.kind, mqo_util::MqoErrorKind::Shutdown);
}
