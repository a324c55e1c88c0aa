//! Multi-tenant concurrent serving over the MQO pipeline.
//!
//! A single [`MqoSession`](mqo_session::MqoSession) is `&mut self` all
//! the way down — correct, transactional, and strictly one batch at a
//! time. This crate turns the same pipeline into a serving system by
//! splitting it at the seam PR 9's transactional submit exposed:
//!
//! - **planning is pure** — `SessionCore::plan_execute` runs expand →
//!   search → extract → execute on `&self` against a read-only
//!   [`MvStore`](mqo_exec::MvStore) snapshot, so any number of batches
//!   plan and execute concurrently;
//! - **mutation is one commit** — every staged cache effect (warm
//!   hits, admissions, evictions, per-tenant counters) is applied under
//!   the mutex that publishes the store, with the same clone-swap
//!   transaction a solo session uses, then published as a refcounted
//!   snapshot;
//! - **batches are formed, not submitted** — the [`Former`] coalesces
//!   many tenants' jobs with round-robin fairness, waiting for company
//!   only while a tenant that just rode a batch is still on its way
//!   back (size and time windows are ceilings), so concurrent tenants
//!   *share* optimizer structure (one tenant's materialized temp
//!   answers another's query) instead of merely timeslicing the engine;
//!   the submitter that forms a batch runs it, so the front owns no
//!   thread;
//! - **SQL lowering is registrared** — one serialized
//!   [`Registrar`] owns the catalog and the SQL planner's aggregate
//!   memo, closing the `catalog_mut` race and keeping derived `ColId`s
//!   (hence fingerprints, hence cache sharing) consistent across
//!   tenants;
//! - **the wire is boring** — a length-prefixed TCP protocol
//!   ([`protocol`]) carries SQL in and bit-exact results or typed
//!   [`MqoError`](mqo_util::MqoError)s out.
//!
//! The load-bearing correctness fact (validated by the serving
//! determinism tests): per-query result bits are invariant to batch
//! composition, batch order, and warm-cache state — so coalescing
//! strangers into one optimizer batch changes *cost*, never *answers*.
//!
//! # Quickstart
//!
//! ```
//! use mqo_exec::generate_database;
//! use mqo_serve::{Client, ServeFront, ServeOptions, Server};
//! use mqo_workloads::Tpcd;
//!
//! // Server side: a front over TPC-D data, wrapped in TCP.
//! let w = Tpcd::new(0.001);
//! let db = generate_database(&w.catalog, 42, usize::MAX);
//! let front = ServeFront::new(w.catalog, db, ServeOptions::new());
//! let mut server = Server::start(front, "127.0.0.1:0").unwrap();
//! let addr = server.local_addr().to_string();
//!
//! // Client side: speak SQL, get typed rows back.
//! let mut client = Client::connect(&addr, "tenant-a").unwrap();
//! let results = client
//!     .query("select o_orderdate, sum(l_quantity) from orders, lineitem \
//!             where o_orderkey = l_orderkey group by o_orderdate;")
//!     .unwrap();
//! assert_eq!(results.len(), 1);
//! assert!(!results[0].rows.is_empty());
//! client.close();
//! server.shutdown();
//! ```

mod client;
mod commit;
mod former;
mod front;
pub mod protocol;
mod registrar;
mod server;

pub use client::Client;
pub use commit::{FrontTotals, TenantStats};
pub use former::{Formed, Former, FormerConfig, Push};
pub use front::{ServeFront, ServeOptions};
pub use protocol::QueryResult;
pub use registrar::Registrar;
pub use server::Server;
