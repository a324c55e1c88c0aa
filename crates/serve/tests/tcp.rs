//! End-to-end TCP tests: concurrent clients over a real socket, typed
//! errors over the wire, protocol-violation isolation, and clean
//! shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mqo_exec::generate_database;
use mqo_serve::{Client, QueryResult, ServeFront, ServeOptions, Server};
use mqo_util::MqoErrorKind;
use mqo_workloads::Tpcd;

const SQL: &str = "\
    SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
    FROM partsupp, supplier, nation \
    WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey \
      AND n_name = 'n_name_000007' \
    GROUP BY ps_partkey ORDER BY value DESC;";

fn start_server() -> Server {
    let w = Tpcd::new(0.001);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let front = ServeFront::new(w.catalog, db, ServeOptions::new());
    Server::start(front, "127.0.0.1:0").expect("bind loopback")
}

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

/// Four concurrent clients, two submissions each: every client's warm
/// resubmit is bit-identical to its cold one, all clients agree, and the
/// shared cache records hits. A steady phase follows: a fifth client
/// resubmits the job alone three times, which must return the same bits
/// and answer at least one of them with a stored plan. Nothing fails,
/// every tenant has a ledger, and the server shuts down cleanly while
/// clients are gone.
#[test]
fn concurrent_tcp_clients_share_the_cache_and_agree() {
    let mut server = start_server();
    let addr = server.local_addr().to_string();

    let clients = 4;
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let tenant = format!("client-{i}");
                let mut c = Client::connect_retry(&addr, &tenant, 20, Duration::from_millis(50))
                    .expect("connect");
                assert!(c.banner().contains(&tenant));
                let cold = c.query(SQL).expect("cold query");
                let warm = c.query(SQL).expect("warm query");
                assert_eq!(canon(&cold), canon(&warm), "warm bits == cold bits");
                let hits = c.stat("total_cache_hits").expect("stats");
                c.close();
                (canon(&cold), hits)
            })
        })
        .collect();
    let outcomes: Vec<(String, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // All four clients saw identical bits.
    let first = &outcomes.first().expect("4 clients").0;
    for (bits, _) in &outcomes {
        assert_eq!(bits, first, "clients disagree");
    }
    // Warm resubmits hit the shared cache (each client asked after its
    // own warm query, so at least its own hits are visible).
    assert!(
        outcomes.iter().any(|(_, hits)| *hits > 0),
        "no cache hits recorded over TCP"
    );
    // Steady phase: the job recurs alone, so its batch recurs.
    let mut c = Client::connect(&addr, "steady").expect("connect");
    for round in 0..3 {
        let again = c.query(SQL).expect("steady query");
        assert_eq!(&canon(&again), first, "steady round {round}: bits differ");
    }
    c.close();
    let (totals, tenants) = server.front().stats();
    assert!(totals.cache_hits > 0);
    assert!(
        totals.plan_reuses > 0,
        "the recurring job never ran a stored plan"
    );
    assert_eq!(totals.failed, 0);
    assert_eq!(tenants.len(), clients + 1, "every tenant has a ledger");
    server.shutdown();
}

/// Typed errors survive the wire: bad SQL comes back as an `Sql`-kind
/// error with a caret render in `detail`, and the connection keeps
/// serving afterwards.
#[test]
fn sql_errors_are_typed_over_the_wire_and_nonfatal() {
    let mut server = start_server();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect_retry(&addr, "t", 20, Duration::from_millis(50)).expect("connect");
    let e = c.query("select nonsense from nowhere;").unwrap_err();
    assert_eq!(e.kind, MqoErrorKind::Sql);
    assert!(e.detail.contains('^'), "caret diagnostic travels: {e}");
    // Same connection still serves.
    let ok = c.query(SQL).expect("connection survived the error");
    assert!(!ok.is_empty());
    c.close();
    server.shutdown();
}

/// Shutdown does not wait for clients to leave: a connected client that
/// sends nothing must not keep `Server::shutdown` from returning.
#[test]
fn shutdown_with_an_idle_client_returns() {
    let mut server = start_server();
    let addr = server.local_addr().to_string();
    let idle =
        Client::connect_retry(&addr, "idle", 20, Duration::from_millis(50)).expect("connect");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).ok();
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("Server::shutdown hung on an idle connection");
    drop(idle);
}

/// A garbage-spewing connection is torn down alone: the server keeps
/// serving well-behaved clients afterwards.
#[test]
fn protocol_violation_isolates_to_the_offending_connection() {
    let mut server = start_server();
    let addr = server.local_addr().to_string();

    // Raw garbage: an HTTP-ish preamble whose "length" is absurd.
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        s.write_all(b"GET / HTTP/1.1\r\n\r\n")
            .expect("write garbage");
        let mut buf = [0u8; 64];
        // Server hangs up (EOF) or answers nothing parseable; either
        // way it must not crash.
        let _ = s.read(&mut buf);
    }
    // A Hello-less QUERY frame gets a typed protocol error back.
    {
        let mut s = TcpStream::connect(&addr).expect("raw connect");
        let mut body = Vec::new();
        mqo_serve::protocol::put_str(&mut body, "select 1;");
        mqo_serve::protocol::write_frame(&mut s, mqo_serve::protocol::op::QUERY, &body, "t")
            .expect("send");
        let (opcode, body) = mqo_serve::protocol::read_frame(&mut s, "t").expect("server replies");
        assert_eq!(opcode, mqo_serve::protocol::op::ERROR);
        let e = mqo_serve::protocol::decode_error(&body, "t").expect("decodes");
        assert_eq!(e.kind, MqoErrorKind::Protocol);
    }
    // The front is unpoisoned: a well-behaved client still gets rows.
    let mut c =
        Client::connect_retry(&addr, "survivor", 20, Duration::from_millis(50)).expect("connect");
    let ok = c.query(SQL).expect("server survived the violations");
    assert!(!ok.is_empty());
    c.close();
    server.shutdown();
}
