//! `serve-warm` and `serve-churn` — the multi-tenant TCP path, used
//! two ways.
//!
//! Both run an in-process `Server` on `127.0.0.1:0` with two TCP
//! clients (tenants `t0`, `t1`) in a closed loop; each op is one
//! `Client::query` of a two-statement SQL job. They differ only in the
//! jobs and the cache budget:
//!
//! * **warm** draws from a pool of eight jobs, so after the warm-up
//!   lap every shared temp is resident and execution is a cache read:
//!   the SQL front end, registrar, batch former, warm-path planning,
//!   fingerprinting and frame encode/decode dominate.
//! * **churn** draws constants from a wide domain against a small
//!   cache, so almost every job builds, offers and admits a new temp
//!   into a store that is full and evicting: admission, the commit
//!   actor's clone-swap and cold temp builds dominate.

use std::time::Instant;

use mqo_catalog::Catalog;
use mqo_exec::{generate_database, Database};
use mqo_expr::{ParamId, Value};
use mqo_serve::{
    protocol, Client, Former, FormerConfig, QueryResult, Registrar, ServeFront, ServeOptions,
    Server,
};
use mqo_session::{SessionOptions, DEFAULT_MV_BUDGET_BYTES};
use mqo_sql::{apply_order, to_batch, SqlPlanner};
use mqo_util::{ErrorStage, FxHashMap, MqoError, MqoErrorKind};
use mqo_workloads::Tpcd;

use crate::harness::{Lap, OpRecord, TraceOut, Workload};
use crate::oracle::{fnv64, hash_results, reference, Canon, Oracle};
use crate::rng::SplitMix64;
use crate::span::Recorder;
use crate::staged::{Stager, STRATEGY};

pub const SCALE: f64 = 0.004;
const CLIENTS: usize = 2;
const OPS_PER_CLIENT: usize = 200;
/// Distinct job lists per client; lap `k` sends list `k mod RING`. The
/// reference answer of every distinct job is computed once, which a
/// run can afford for three lists, not for a fresh one every lap.
const RING: usize = 3;
/// `serve-churn`'s cache budget: about 340 of its temps, fewer than
/// the warm-up lap's 400 jobs build, so the store is full and evicting
/// before the first timed lap.
pub const CHURN_MV_BUDGET_BYTES: usize = 256 << 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Warm,
    Churn,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Warm => "serve-warm",
            Mix::Churn => "serve-churn",
        }
    }
}

/// The Q11 pair: stock value of one nation's suppliers by part, and
/// its grand total. `below` adds `ps_availqty < K`.
fn q11_pair(nation: u64, below: Option<u64>) -> String {
    let filter = format!(
        "ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'n_name_{nation:06}'{}",
        below.map_or(String::new(), |k| format!(" AND ps_availqty < {k}"))
    );
    format!(
        "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
         FROM partsupp, supplier, nation WHERE {filter} \
         GROUP BY ps_partkey ORDER BY value DESC; \
         SELECT SUM(ps_supplycost * ps_availqty) AS value \
         FROM partsupp, supplier, nation WHERE {filter};"
    )
}

/// The Q15 pair: the revenue view over one ship-date window, used for
/// its maximum and joined with `supplier`.
fn q15_pair(from: u64, days: u64) -> String {
    let view = format!(
        "(SELECT l_suppkey, SUM(l_extendedprice * (1.0 - l_discount)) AS rev \
         FROM lineitem WHERE l_shipdate >= {from} AND l_shipdate < {} \
         GROUP BY l_suppkey)",
        from + days
    );
    format!(
        "SELECT MAX(rev) AS maxrev FROM {view}; \
         SELECT s_suppkey, l_suppkey, rev FROM supplier JOIN {view} \
         ON s_suppkey = l_suppkey ORDER BY rev DESC;"
    )
}

/// One op's caller-observed seconds and its answer.
type Answer = (f64, Result<Vec<QueryResult>, MqoError>);

/// The system under test: a server and its two connected clients.
pub struct Serving {
    // Declared first so the clients say Bye before the server stops.
    clients: Vec<Client>,
    server: Server,
}

pub struct Serve {
    mix: Mix,
    seed: u64,
    oracle: Oracle,
    /// The reference path lowers SQL on its own catalog and planner.
    oracle_catalog: Catalog,
    oracle_planner: SqlPlanner,
    oracle_db: Option<Database>,
    datagen: Vec<f64>,
    /// Untraced ops sent, and how many the front refused as
    /// `Overloaded`.
    attempted: usize,
    overloaded: usize,
}

fn no_params() -> FxHashMap<ParamId, Value> {
    FxHashMap::default()
}

impl Serve {
    pub fn new(mix: Mix, seed: u64) -> Serve {
        Serve {
            mix,
            seed,
            oracle: Oracle::new(mix.name(), seed),
            oracle_catalog: Tpcd::new(SCALE).catalog,
            oracle_planner: SqlPlanner::new(),
            oracle_db: None,
            datagen: Vec::new(),
            attempted: 0,
            overloaded: 0,
        }
    }

    fn mv_budget_bytes(&self) -> usize {
        match self.mix {
            Mix::Warm => DEFAULT_MV_BUDGET_BYTES,
            Mix::Churn => CHURN_MV_BUDGET_BYTES,
        }
    }

    fn options(&self) -> ServeOptions {
        match self.mix {
            Mix::Warm => ServeOptions::new(),
            Mix::Churn => ServeOptions::new()
                .with_session(SessionOptions::new().with_mv_budget_bytes(CHURN_MV_BUDGET_BYTES)),
        }
    }

    /// The jobs client `client` sends in lap `lap`, drawn from that
    /// client's and list's own stream.
    fn jobs(&self, lap: usize, client: usize) -> Vec<String> {
        let list = lap % RING;
        let mut rng = SplitMix64::fork(self.seed, &format!("{}/c{client}/{list}", self.name()));
        (0..OPS_PER_CLIENT)
            .map(|_| match self.mix {
                Mix::Warm => {
                    let pick = rng.below(8);
                    if pick < 4 {
                        q11_pair(3 + 6 * pick, None)
                    } else {
                        q15_pair(400 + 600 * (pick - 4), 90)
                    }
                }
                Mix::Churn => {
                    if rng.below(2) == 0 {
                        q15_pair(rng.below(2400), [30, 60, 90][rng.below(3) as usize])
                    } else {
                        q11_pair(rng.below(25), Some(1 + rng.below(9999)))
                    }
                }
            })
            .collect()
    }

    /// Checks one job's results against the reference, outside any
    /// timed span; returns `(hash, ok)`.
    fn check(&mut self, sql: &str, results: &[QueryResult], full: bool) -> (u64, bool) {
        let Serve {
            oracle,
            oracle_catalog: catalog,
            oracle_planner: planner,
            oracle_db,
            ..
        } = self;
        let db = oracle_db.as_ref().expect("set-up ran before any op");
        let engine = oracle.engine;
        let expected = oracle.ensure(fnv64(sql.as_bytes()), "sql", || {
            let planned = planner
                .plan_text(catalog, sql)
                .expect("the harness generates valid SQL");
            reference(
                catalog,
                db,
                &to_batch(&planned),
                &no_params(),
                engine,
                STRATEGY,
            )
        });
        let got: Vec<Canon> = results.iter().map(Canon::from_result).collect();
        (hash_results(&got), expected.matches(&got, full))
    }

    fn record(
        &mut self,
        sql: &str,
        secs: f64,
        result: &Result<Vec<QueryResult>, MqoError>,
        full: bool,
    ) -> OpRecord {
        self.attempted += 1;
        let (hash, ok) = match result {
            Ok(results) => self.check(sql, results, full),
            Err(e) => {
                self.overloaded += usize::from(e.kind == MqoErrorKind::Overloaded);
                (0, false)
            }
        };
        OpRecord {
            secs,
            queries: result.as_ref().map_or(0, Vec::len),
            hash,
            ok,
        }
    }

    /// The single-caller job sequence of the traced lanes: the warm-up
    /// lap's jobs, then lap 1's, client by client — the order the
    /// reference lap's ops are listed in.
    fn replay_jobs(&self) -> (Vec<String>, Vec<String>) {
        let lap = |l| (0..CLIENTS).flat_map(|c| self.jobs(l, c)).collect();
        (lap(0), lap(1))
    }

    /// Runs lap 1 through `call` with one caller after warming up with
    /// lap 0, recording `span` around each call and checking each
    /// answer against the untraced lap.
    fn lane(
        &mut self,
        rec: &mut Recorder,
        span: &'static str,
        reference: &Lap,
        mut call: impl FnMut(&str) -> Result<Vec<QueryResult>, MqoError>,
    ) -> usize {
        let (warmup, timed) = self.replay_jobs();
        for sql in &warmup {
            call(sql).ok();
        }
        let mut failed = 0;
        for (i, sql) in timed.iter().enumerate() {
            rec.set_op(i as u32);
            let result = rec.time(span, || call(sql));
            let same = result.is_ok_and(|r| {
                let (hash, ok) = self.check(sql, &r, false);
                ok && hash == reference.ops[i].hash
            });
            failed += usize::from(!same);
        }
        failed
    }
}

/// The staged lane's state: what a `ServeFront` holds, in the open.
struct StagedFront {
    registrar: Registrar,
    stager: Stager,
    /// A second catalog and planner, for timing the SQL stages apart
    /// (the registrar runs them in one call).
    sql_catalog: Catalog,
    sql_planner: SqlPlanner,
    former: Former<()>,
    epoch: Instant,
}

impl StagedFront {
    /// One job, walked: lower → session submit (staged) → per-query
    /// reply building → encode → decode.
    fn job(&mut self, rec: &mut Recorder, sql: &str) -> Result<Vec<QueryResult>, MqoError> {
        rec.enter("op");
        let lowered = rec.time("serve.registrar.lower", || self.registrar.lower(sql));
        let catalog = self.registrar.snapshot();
        let batch = to_batch(lowered.as_deref().unwrap_or(&[]));
        let in_op = (|| {
            let lowered = lowered?;
            let (tables, planned) = self.stager.submit(rec, &catalog, &batch, &no_params())?;
            // What a serving worker does with a committed batch:
            // ORDER BY, column names, rows.
            let reply = rec.enter("serve.reply");
            let results: Vec<QueryResult> = lowered
                .iter()
                .zip(&tables)
                .map(|(query, table)| {
                    let table = apply_order(table, &query.order_by);
                    QueryResult {
                        label: query.label.clone(),
                        columns: table
                            .schema
                            .iter()
                            .map(|&c| catalog.column(c).name.clone())
                            .collect(),
                        rows: table.to_rows(),
                    }
                })
                .collect();
            rec.exit(reply);
            let bytes = rec.time("serve.protocol.encode", || {
                protocol::encode_results(&results)
            });
            rec.count("serve.protocol.result_bytes", bytes.len() as f64);
            let decoded = rec.time("serve.protocol.decode", || {
                protocol::decode_results(&bytes, "bench")
            })?;
            Ok::<_, MqoError>((decoded, planned))
        })();
        rec.unwind(); // closes "op", and whatever a failed stage left open
        let (decoded, planned) = in_op?;
        self.stager.layer_only(rec, &catalog, &batch, planned)?;

        // The SQL stages apart (the registrar runs them in one call),
        // and the former by itself with an injected clock.
        let root = rec.enter("layer_only");
        let sql_stages = (|| {
            let tokens = rec.time("sql.lex", || mqo_sql::lex::lex(sql))?;
            rec.count("sql.tokens", tokens.len() as f64);
            let statements = rec.time("sql.parse_statements", || mqo_sql::parse_statements(sql))?;
            rec.time("sql.plan", || {
                self.sql_planner
                    .plan_statements(&mut self.sql_catalog, &statements)
            })
        })();
        rec.time("serve.former.form", || {
            self.former.push("t0", decoded.len(), (), self.epoch);
            self.former.form(self.epoch + self.former.config().window)
        });
        rec.exit(root);
        sql_stages.map_err(|e| MqoError::invariant(ErrorStage::Serve, "sql", e.to_string()))?;
        Ok(decoded)
    }
}

impl Workload for Serve {
    type World = Serving;

    fn name(&self) -> &'static str {
        self.mix.name()
    }

    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scale", SCALE.to_string()),
            ("clients", CLIENTS.to_string()),
            ("ops_per_lap", (CLIENTS * OPS_PER_CLIENT).to_string()),
            ("mv_budget_bytes", self.mv_budget_bytes().to_string()),
        ]
    }

    fn setups(&self) -> usize {
        3
    }

    fn build(&mut self) -> Serving {
        let catalog = Tpcd::new(SCALE).catalog;
        let t = Instant::now();
        let db = generate_database(&catalog, self.seed, usize::MAX);
        self.datagen.push(t.elapsed().as_secs_f64());
        self.oracle_db.get_or_insert_with(|| db.clone());
        let front = ServeFront::new(catalog, db, self.options());
        let server = Server::start(front, "127.0.0.1:0").expect("loopback binds");
        let addr = server.local_addr().to_string();
        let clients = (0..CLIENTS)
            .map(|c| Client::connect(&addr, &format!("t{c}")).expect("server is accepting"))
            .collect();
        Serving { clients, server }
    }

    fn lap(&mut self, world: &mut Serving, lap: usize) -> Lap {
        let jobs: Vec<Vec<String>> = (0..CLIENTS).map(|c| self.jobs(lap, c)).collect();
        let degraded_before = world.server.front().stats().0.degraded;
        let t = Instant::now();
        let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
            let callers: Vec<_> = world
                .clients
                .iter_mut()
                .zip(&jobs)
                .map(|(client, jobs)| {
                    scope.spawn(move || {
                        jobs.iter()
                            .map(|sql| {
                                let t = Instant::now();
                                let answer = client.query(sql);
                                (t.elapsed().as_secs_f64(), answer)
                            })
                            .collect()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("a client thread panicked"))
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        let degraded = world.server.front().stats().0.degraded - degraded_before;

        let mut out = Lap {
            wall,
            ops: Vec::new(),
        };
        for (jobs, answers) in jobs.iter().zip(&answers) {
            for (sql, (secs, answer)) in jobs.iter().zip(answers) {
                out.ops.push(self.record(sql, *secs, answer, lap == 0));
            }
        }
        // A degraded batch still answers; charge it to the lap's first
        // ops so that it shows in `failed`.
        for op in out.ops.iter_mut().filter(|o| o.ok).take(degraded as usize) {
            op.ok = false;
        }
        out
    }

    fn trace(&mut self, rec: &mut Recorder, world: &mut Serving, reference: &Lap) -> TraceOut {
        let (totals, _) = world.server.front().stats();
        let db = self
            .oracle_db
            .clone()
            .expect("set-up ran before the replay");
        let catalog = Tpcd::new(SCALE).catalog;
        let mut out = TraceOut {
            ops: reference.ops.len(),
            attempted: 3 * reference.ops.len(),
            ..TraceOut::default()
        };

        // Lane 1: the whole path over TCP, one caller.
        {
            let front = ServeFront::new(catalog.clone(), db.clone(), self.options());
            let server = Server::start(front, "127.0.0.1:0").expect("loopback binds");
            let mut client = Client::connect(&server.local_addr().to_string(), "t0")
                .expect("server is accepting");
            out.failed += self.lane(rec, "serve.tcp.roundtrip", reference, |sql| {
                client.query(sql)
            });
        }
        // Lane 2: the front alone, no wire.
        {
            let front = ServeFront::new(catalog.clone(), db.clone(), self.options());
            out.failed += self.lane(rec, "serve.front.submit", reference, |sql| {
                front.submit_sql("t0", sql)
            });
        }
        // Lane 3: the front's work, staged.
        let mut staged = StagedFront {
            registrar: Registrar::new(catalog.clone()),
            stager: Stager::new(db, self.mv_budget_bytes()),
            sql_catalog: catalog,
            sql_planner: SqlPlanner::new(),
            former: Former::new(FormerConfig::default()),
            epoch: Instant::now(),
        };
        let (warmup, timed) = self.replay_jobs();
        let mut unrecorded = Recorder::new();
        for sql in &warmup {
            staged.job(&mut unrecorded, sql).ok();
        }
        for (i, sql) in timed.iter().enumerate() {
            rec.set_op(i as u32);
            let same = staged.job(rec, sql).is_ok_and(|r| {
                let (hash, ok) = self.check(sql, &r, false);
                ok && hash == reference.ops[i].hash
            });
            rec.unwind();
            out.failed += usize::from(!same);
        }

        out.gauges = vec![
            (
                "serve.former.batch_queries",
                totals.queries as f64 / totals.batches.max(1) as f64,
            ),
            (
                "serve.overloaded",
                self.overloaded as f64 / self.attempted.max(1) as f64,
            ),
            ("exec.mv_store.entries", staged.stager.store.len() as f64),
            (
                "exec.mv_store.bytes_used",
                staged.stager.store.bytes_used() as f64,
            ),
        ];
        out
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn oracle_mut(&mut self) -> &mut Oracle {
        &mut self.oracle
    }

    fn datagen_secs(&self) -> f64 {
        crate::stats::median(&self.datagen)
    }
}
