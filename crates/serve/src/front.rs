//! The in-process serving front: the batch former, a planner worker
//! pool that forms its own batches, and the commit actor, over one
//! shared [`SessionCore`].
//!
//! ```text
//!  conn threads                          workers              commit actor
//!  ───────────                          ─────────             ────────────
//!  submit_sql ──lower──▶ [Former]  ◀──form── plan_execute ──┐
//!  submit_sql ──lower──▶  (rules,            (&self, pure,  ├─▶ commit_staged
//!      ⋮                  fairness)           snapshot read) │    (serialized,
//!  submit_sql ──lower──▶           ◀──form── plan_execute ──┘     clone-swap)
//!      ▲                                          ▲                   │
//!      └────────────── per-job reply ◀────────────┴── Arc<MvStore> ◀──┘
//! ```
//!
//! Every submission blocks its own caller and nobody else: lowering is
//! serialized in the [`Registrar`] (microseconds), a job waits in the
//! former only while a tenant that just rode a batch is expected back
//! (at most one window), an idle worker takes the formed batch straight
//! off the former, planning/execution runs concurrently on `&self`
//! [`SessionCore::plan_execute`], and only the commit arithmetic is
//! serialized in the actor. A failed job — bad SQL, injected fault,
//! budget violation — answers its own submitter with a typed
//! [`MqoError`] and leaves the shared store exactly as the last
//! successful commit published it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use mqo_catalog::Catalog;
use mqo_chaos::Seam;
use mqo_exec::{Database, MvStore};
use mqo_session::{SessionCore, SessionOptions};
use mqo_sql::{apply_order, to_batch, PlannedQuery};
use mqo_util::{ErrorStage, FxHashMap, MqoError, MqoErrorKind};

use crate::commit::{lock_shared, send_actor, ActorMsg, CommitActor, Shared};
use crate::former::{Formed, Former, FormerConfig, Push};
use crate::protocol::QueryResult;
use crate::registrar::Registrar;
use crate::{FrontTotals, TenantStats};

/// Tuning knobs of the serving front.
#[derive(Debug, Clone)]
#[must_use = "ServeOptions is a builder: chain `with_*` calls and pass it to ServeFront::new"]
pub struct ServeOptions {
    /// Session options applied to every formed batch (strategy,
    /// budgets, MV cache size, optimizer threads).
    pub session: SessionOptions,
    /// Batch-forming ceilings and fairness caps.
    pub former: FormerConfig,
    /// Planner worker threads — formed batches in flight concurrently.
    pub workers: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            session: SessionOptions::new(),
            former: FormerConfig::default(),
            workers: 2,
        }
    }
}

impl ServeOptions {
    /// Defaults: batches form when nobody is expected to join, at 16
    /// queued queries, or after 2 ms at the latest; 2 planner workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the session options.
    pub fn with_session(mut self, session: SessionOptions) -> Self {
        self.session = session;
        self
    }

    /// Replaces the batch-forming config.
    pub fn with_former(mut self, former: FormerConfig) -> Self {
        self.former = former;
        self
    }

    /// Sets the planner worker count (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// What rides the former per job: the lowered queries and the channel
/// that answers the submitting caller.
struct JobWork {
    planned: Vec<PlannedQuery>,
    reply: SyncSender<Result<Vec<QueryResult>, MqoError>>,
}

type FormerCell = Arc<(Mutex<Former<JobWork>>, Condvar)>;

fn lock_former(cell: &FormerCell) -> std::sync::MutexGuard<'_, Former<JobWork>> {
    cell.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The multi-tenant serving front. See module docs for the dataflow;
/// [`crate::Server`] wraps this in the TCP protocol, and tests drive it
/// in-process through [`ServeFront::submit_sql`].
pub struct ServeFront {
    core: Arc<SessionCore>,
    registrar: Arc<Registrar>,
    former: FormerCell,
    shared: Arc<Mutex<Shared>>,
    actor_tx: Sender<ActorMsg>,
    stop: Arc<AtomicBool>,
    threads: Mutex<Threads>,
}

/// Thread handles, kept separate so shutdown can join producers before
/// their consumer: workers → commit actor.
#[derive(Default)]
struct Threads {
    workers: Vec<JoinHandle<()>>,
    actor: Option<JoinHandle<()>>,
}

impl ServeFront {
    /// Builds the front and spawns its worker and commit-actor threads.
    /// Serving starts immediately.
    #[must_use]
    pub fn new(catalog: Catalog, db: Database, options: ServeOptions) -> Self {
        let ServeOptions {
            session,
            former: former_config,
            workers,
        } = options;
        let core = Arc::new(SessionCore::new(db, session.clone()));
        let store = Arc::new(MvStore::new(session.mv_budget_bytes));
        let shared = Arc::new(Mutex::new(Shared {
            store: Arc::clone(&store),
            tenants: BTreeMap::new(),
            totals: FrontTotals::default(),
        }));
        let registrar = Arc::new(Registrar::new(catalog));
        let former: FormerCell = Arc::new((Mutex::new(Former::new(former_config)), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Threads::default();

        // Commit actor: the one thread that mutates shared state.
        let (actor_tx, actor_rx) = mpsc::channel::<ActorMsg>();
        let actor = CommitActor::new(store, session.opt.verify);
        {
            let shared = Arc::clone(&shared);
            threads.actor = Some(std::thread::spawn(move || actor.run(&actor_rx, &shared)));
        }

        // Planner workers: form batches, then pure plan/execute over
        // snapshots.
        let seq = Arc::new(AtomicU64::new(0));
        for _ in 0..workers.max(1) {
            let core = Arc::clone(&core);
            let registrar = Arc::clone(&registrar);
            let shared = Arc::clone(&shared);
            let actor_tx = actor_tx.clone();
            let former = Arc::clone(&former);
            let stop = Arc::clone(&stop);
            let seq = Arc::clone(&seq);
            threads.workers.push(std::thread::spawn(move || {
                while let Some(jobs) = next_batch(&former, &stop) {
                    process_batch(&core, &registrar, &shared, &actor_tx, &seq, jobs);
                }
            }));
        }

        ServeFront {
            core,
            registrar,
            former,
            shared,
            actor_tx,
            stop,
            threads: Mutex::new(threads),
        }
    }

    /// The shared planning core (read-only access for tests/tools).
    #[must_use]
    pub fn core(&self) -> &SessionCore {
        &self.core
    }

    /// The latest committed materialized-view store snapshot.
    #[must_use]
    pub fn mv_snapshot(&self) -> Arc<MvStore> {
        Arc::clone(&lock_shared(&self.shared).store)
    }

    /// Global and per-tenant serving counters, as of the last commit.
    #[must_use]
    pub fn stats(&self) -> (FrontTotals, BTreeMap<String, TenantStats>) {
        let sh = lock_shared(&self.shared);
        (sh.totals, sh.tenants.clone())
    }

    /// Lowers `sql`, queues it with the batch former under `tenant`'s
    /// lane, and blocks until the formed batch commits (or fails).
    /// Concurrent callers coalesce into shared MQO batches; each caller
    /// gets exactly its own queries' results back, bit-identical to a
    /// serial submission of the same statements.
    ///
    /// # Errors
    ///
    /// [`MqoErrorKind::Sql`] for statements that fail to parse or plan;
    /// [`MqoErrorKind::Overloaded`] when `tenant` is at its in-flight
    /// cap; [`MqoErrorKind::Shutdown`] when the front is stopping; any
    /// pipeline [`MqoError`] (fault, invariant, broken plan) when the
    /// batch fails — in which case the shared store keeps the state of
    /// the last successful commit.
    pub fn submit_sql(&self, tenant: &str, sql: &str) -> Result<Vec<QueryResult>, MqoError> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(MqoError::shutdown("submit", "serving front is shut down"));
        }
        mqo_chaos::hit(Seam::FormerEnqueue)?;
        let planned = self.registrar.lower(sql)?;
        if planned.is_empty() {
            return Ok(Vec::new());
        }
        let queries = planned.len();
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        {
            let mut former = lock_former(&self.former);
            // Re-check under the former lock: shutdown's final drain
            // runs under this lock after setting the flag, so a push
            // that lands here is guaranteed to be either drained (and
            // answered) or rejected — never orphaned.
            if self.stop.load(Ordering::SeqCst) {
                return Err(MqoError::shutdown("submit", "serving front is shut down"));
            }
            let work = JobWork {
                planned,
                reply: reply_tx,
            };
            if former.push(tenant, queries, work, Instant::now()) == Push::AtCapacity {
                return Err(MqoError::new(
                    MqoErrorKind::Overloaded,
                    ErrorStage::Serve,
                    tenant,
                    "",
                    "tenant is at its in-flight cap — retry after a batch drains",
                ));
            }
        }
        // One worker re-reads the former (forms, or sleeps until the
        // new deadline); the lock is already released, so it does not
        // wake up only to block on it.
        self.former.1.notify_one();
        reply_rx.recv().map_err(|_| {
            MqoError::shutdown(
                "submit",
                "serving front dropped the job while shutting down",
            )
        })?
    }

    /// Stops serving: in-flight batches finish and commit, queued jobs
    /// are answered with `Shutdown` errors, then every thread joins —
    /// workers first, then the commit actor, so nothing loses its
    /// consumer while still producing. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // Store + notify under the former lock: a worker holds that
        // lock continuously from its stop-check until the condvar wait
        // releases it, so a locked notify can never land in the gap
        // between the two and get lost (an unlocked one can — the
        // worker would then sleep forever and `join` below would hang).
        {
            let _former = lock_former(&self.former);
            self.stop.store(true, Ordering::SeqCst);
            self.former.1.notify_all();
        }
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        for w in threads.workers.drain(..) {
            w.join().ok();
        }
        // No worker is left to form a batch, and `submit_sql` re-checks
        // the stop flag under this lock: whatever is queued now is all
        // that ever will be, and it is answered here.
        for job in lock_former(&self.former).drain_all().into_iter().flatten() {
            job.payload
                .reply
                .send(Err(MqoError::shutdown(
                    "former",
                    "serving front shut down before the job was batched",
                )))
                .ok();
        }
        if let Some(actor) = threads.actor.take() {
            send_actor(&self.actor_tx, ActorMsg::Stop);
            actor.join().ok();
        }
    }
}

impl Drop for ServeFront {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServeFront {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (totals, tenants) = self.stats();
        f.debug_struct("ServeFront")
            .field("batches", &totals.batches)
            .field("queries", &totals.queries)
            .field("tenants", &tenants.len())
            .finish()
    }
}

/// Blocks a planner worker until the former yields a batch: forms if a
/// rule fires, otherwise sleeps until the former's next deadline or
/// until a push wakes it (each push wakes one worker). `None` once the
/// front is stopping — whatever is still queued is left for `shutdown`
/// to answer.
fn next_batch(former: &FormerCell, stop: &AtomicBool) -> Option<Vec<Formed<JobWork>>> {
    let cvar = &former.1;
    let mut guard = lock_former(former);
    loop {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(batch) = guard.form(Instant::now()) {
            // Pushes wake one worker each; what this batch left behind
            // needs one too.
            if !guard.is_empty() {
                cvar.notify_one();
            }
            return Some(batch);
        }
        guard = match guard.next_deadline() {
            Some(d) => {
                let wait = d.saturating_duration_since(Instant::now());
                cvar.wait_timeout(guard, wait)
                    .map(|(g, _)| g)
                    .unwrap_or_else(|p| p.into_inner().0)
            }
            None => cvar.wait(guard).unwrap_or_else(PoisonError::into_inner),
        };
    }
}

/// Answers every job in `jobs` with a clone of `e` and records the
/// failed batch with the actor. The shared store is untouched.
fn fail_batch(
    actor_tx: &Sender<ActorMsg>,
    tenants: Vec<(String, u64)>,
    jobs: Vec<Formed<JobWork>>,
    e: &MqoError,
    record: bool,
) {
    for job in jobs {
        job.payload.reply.send(Err(e.clone())).ok();
    }
    if record {
        send_actor(actor_tx, ActorMsg::Fail { tenants });
    }
}

/// Plans and executes one formed batch purely against the latest
/// snapshots, sends the staged effects to the commit actor, and answers
/// each job's submitter.
fn process_batch(
    core: &SessionCore,
    registrar: &Registrar,
    shared: &Mutex<Shared>,
    actor_tx: &Sender<ActorMsg>,
    seq: &AtomicU64,
    jobs: Vec<Formed<JobWork>>,
) {
    let tenants: Vec<(String, u64)> = jobs
        .iter()
        .map(|j| (j.tenant.clone(), j.queries as u64))
        .collect();

    // Read the published snapshots: the store the plan may reuse temps
    // from (refcounted — entries stay alive even if evicted before the
    // commit lands) and a catalog covering every job's ColIds.
    if let Err(e) = mqo_chaos::hit(Seam::SnapshotRead) {
        fail_batch(actor_tx, tenants, jobs, &e, true);
        return;
    }
    let store = Arc::clone(&lock_shared(shared).store);
    let catalog = registrar.snapshot();

    let planned_all: Vec<PlannedQuery> = jobs
        .iter()
        .flat_map(|j| j.payload.planned.iter().cloned())
        .collect();
    let batch = to_batch(&planned_all);
    let batch_seq = seq.fetch_add(1, Ordering::Relaxed);
    let params = FxHashMap::default();

    let staged = match core.plan_execute(&catalog, &batch, &params, batch_seq, &store) {
        Ok(staged) => staged,
        Err(e) => {
            fail_batch(actor_tx, tenants, jobs, &e, true);
            return;
        }
    };
    if let Err(e) = mqo_chaos::hit(Seam::CommitSend) {
        // The batch executed, but its staged effects never reach the
        // actor: a full rollback by construction (StagedSubmit drops).
        fail_batch(actor_tx, tenants, jobs, &e, true);
        return;
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    send_actor(
        actor_tx,
        ActorMsg::Commit {
            staged: Box::new(staged),
            tenants: tenants.clone(),
            reply: reply_tx,
        },
    );
    let committed = match reply_rx.recv() {
        Ok(r) => r,
        Err(_) => {
            let e = MqoError::shutdown("commit", "commit actor stopped before the batch landed");
            fail_batch(actor_tx, tenants, jobs, &e, false);
            return;
        }
    };
    match committed {
        Ok(result) => {
            // Split the batch's results back out per job, in formation
            // order, applying each query's ORDER BY and resolving
            // column names against the snapshot.
            let mut tables = result.results.into_iter();
            let mut errors = result.query_errors.into_iter();
            for job in jobs {
                let mut out = Vec::with_capacity(job.payload.planned.len());
                let mut aborted: Option<MqoError> = None;
                for pq in &job.payload.planned {
                    let table = tables.next();
                    if let Some(e) = errors.next().flatten() {
                        aborted.get_or_insert(e);
                        continue;
                    }
                    let Some(table) = table else { continue };
                    let table = if pq.order_by.is_empty() {
                        table
                    } else {
                        apply_order(&table, &pq.order_by)
                    };
                    let columns: Vec<String> = table
                        .schema
                        .iter()
                        .map(|&c| catalog.column(c).name.clone())
                        .collect();
                    let rows: Vec<_> = (0..table.len()).map(|i| table.row(i)).collect();
                    out.push(QueryResult {
                        label: pq.label.clone(),
                        columns,
                        rows,
                    });
                }
                // A budget-aborted query fails its own job with the
                // abort error; co-batched jobs still get their rows.
                let reply = match aborted {
                    Some(e) => Err(e),
                    None => Ok(out),
                };
                job.payload.reply.send(reply).ok();
            }
        }
        Err(e) => {
            // The actor already recorded the failure and rolled back.
            fail_batch(actor_tx, tenants, jobs, &e, false);
        }
    }
}
