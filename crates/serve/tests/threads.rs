//! The front owns no thread: every batch runs on the thread of the
//! submitter that formed it. One test in this binary, so the harness
//! starts no thread while it counts.
#![cfg(target_os = "linux")]

use mqo_exec::generate_database;
use mqo_serve::{ServeFront, ServeOptions};
use mqo_workloads::Tpcd;

const SQL: &str = "\
    SELECT o_orderdate, SUM(l_quantity) AS qty \
    FROM orders, lineitem WHERE o_orderkey = l_orderkey \
    GROUP BY o_orderdate;";

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn serving_starts_no_thread() {
    let w = Tpcd::new(0.001);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let before = threads();
    let front = ServeFront::new(w.catalog, db, ServeOptions::new());
    for i in 0..20 {
        let tenant = if i % 2 == 0 { "alice" } else { "bob" };
        front.submit_sql(tenant, SQL).expect("submit");
    }
    assert_eq!(threads(), before, "the front started a thread");
    front.shutdown();
    assert_eq!(threads(), before);
    assert_eq!(front.stats().0.batches, 20);
}
