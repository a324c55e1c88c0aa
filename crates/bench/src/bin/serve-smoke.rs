//! CI smoke for the TCP serving front: one in-process server, four
//! concurrent scripted clients over real sockets.
//!
//! Each client submits the same two-statement job cold then warm and
//! checks the bits match; the process then checks all clients agree
//! with each other and the shared cache recorded warm hits. A steady
//! phase follows: one client resubmits the job alone three more times,
//! which must return the same bits and answer at least one of them
//! with a stored plan (a plan cache that never hits fails here).
//! Finally nothing may have failed and the server must shut down
//! cleanly. Any violation panics (nonzero exit); success prints the
//! serving counters and exits 0.
//!
//! Run with: `cargo run --release -p mqo-bench --bin serve-smoke`

use std::time::Duration;

use mqo_exec::generate_database;
use mqo_serve::{Client, QueryResult, ServeFront, ServeOptions, Server};
use mqo_workloads::Tpcd;

const SCALE: f64 = 0.001;
const SEED: u64 = 42;
const CLIENTS: usize = 4;

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

fn canon(results: &[QueryResult]) -> String {
    let mut s = String::new();
    for r in results {
        s.push_str(&format!("{}[{}]\n", r.label, r.columns.join(",")));
        for row in &r.rows {
            s.push_str(&format!("{row:?}\n"));
        }
    }
    s
}

fn main() {
    eprintln!("serve-smoke: TPC-D scale {SCALE} (seed {SEED}), {CLIENTS} TCP clients");
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, SEED, usize::MAX);
    let front = ServeFront::new(w.catalog, db, ServeOptions::new());
    let mut server = Server::start(front, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    eprintln!("serve-smoke: listening on {addr}");

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let tenant = format!("smoke-{i}");
                let mut c = Client::connect_retry(&addr, &tenant, 40, Duration::from_millis(50))
                    .expect("connect");
                let cold = c.query(SQL).expect("cold query");
                let warm = c.query(SQL).expect("warm query");
                assert_eq!(
                    canon(&cold),
                    canon(&warm),
                    "{tenant}: warm bits differ from cold"
                );
                assert!(
                    !cold.is_empty() && !cold[0].rows.is_empty(),
                    "{tenant}: no rows"
                );
                c.close();
                canon(&cold)
            })
        })
        .collect();
    let bits: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for b in &bits {
        assert_eq!(b, &bits[0], "clients disagree on result bits");
    }

    let (totals, _) = server.front().stats();
    assert!(
        totals.cache_hits > 0,
        "no warm hits across {CLIENTS} clients"
    );

    // Steady phase: the job recurs alone, so its batch recurs.
    let mut c = Client::connect(&addr, "smoke-steady").expect("connect");
    for round in 0..3 {
        let again = c.query(SQL).expect("steady query");
        assert_eq!(
            canon(&again),
            bits[0],
            "steady round {round}: bits differ from cold"
        );
    }
    c.close();

    let (totals, tenants) = server.front().stats();
    assert!(
        totals.plan_reuses > 0,
        "the recurring job never ran a stored plan"
    );
    assert_eq!(totals.failed, 0, "a batch failed during the smoke");
    assert_eq!(tenants.len(), CLIENTS + 1, "every tenant has a ledger");
    server.shutdown();

    println!(
        "serve-smoke: OK — {} batches / {} queries from {} tenants | \
         {} cache hits, {} temps built, {} admitted, {} plan reuses, 0 failed",
        totals.batches,
        totals.queries,
        tenants.len(),
        totals.cache_hits,
        totals.temps_built,
        totals.admitted,
        totals.plan_reuses
    );
}
