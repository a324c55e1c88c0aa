//! The in-process serving front: the batch former and the published
//! store over one shared [`SessionCore`]. The front owns no thread:
//! every formed batch runs on the thread of the submitter that formed
//! it (leader/follower).
//!
//! ```text
//!  conn threads                 the leader: the conn thread whose form fired
//!  ────────────                 ─────────────────────────────────────────────
//!  submit_sql ──lower──▶ [Former] ──form──▶ plan_execute ──▶ Shared::commit
//!  submit_sql ──lower──▶  (rules,            (&self, pure,     (under the
//!      ⋮                  fairness)           snapshot read)    store mutex,
//!  submit_sql ──lower──▶                                        clone-swap)
//!      ▲                                                            │
//!      └──── per-job reply (followers wait until next_deadline) ◀───┘
//! ```
//!
//! Every submission blocks its own caller and nobody else: lowering is
//! serialized in the [`Registrar`] (microseconds), a job waits in the
//! former only while a tenant that just rode a batch is expected back
//! (at most one window), and whichever submitter's `form` fires runs
//! the batch itself — planning/execution concurrently with other
//! leaders on `&self` [`SessionCore::plan_execute`], then the commit,
//! the only serialized step — and answers every rider. A failed job —
//! bad SQL, injected fault, budget violation — answers its own
//! submitter with a typed [`MqoError`] and leaves the shared store
//! exactly as the last successful commit published it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mqo_catalog::Catalog;
use mqo_chaos::Seam;
use mqo_exec::{Database, MvStore};
use mqo_session::{SessionCore, SessionOptions, StagedSubmit};
use mqo_sql::{apply_order, to_batch, PlannedQuery};
use mqo_util::{ErrorStage, FxHashMap, MqoError, MqoErrorKind};

use crate::commit::{lock_shared, Shared};
use crate::former::{Formed, Former, FormerConfig, Push};
use crate::protocol::QueryResult;
use crate::registrar::Registrar;
use crate::{FrontTotals, TenantStats};

/// Tuning knobs of the serving front.
#[derive(Debug, Clone, Default)]
#[must_use = "ServeOptions is a builder: chain `with_*` calls and pass it to ServeFront::new"]
pub struct ServeOptions {
    /// Session options applied to every formed batch (strategy,
    /// budgets, MV cache size).
    pub session: SessionOptions,
    /// Batch-forming ceilings and fairness caps.
    pub former: FormerConfig,
}

impl ServeOptions {
    /// Defaults: batches form when nobody is expected to join, at 16
    /// queued queries, or after 2 ms at the latest.
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
}

/// What rides the former per job: the lowered queries and the channel
/// that answers the submitting caller.
struct JobWork {
    planned: Vec<PlannedQuery>,
    reply: SyncSender<Result<Vec<QueryResult>, MqoError>>,
}

/// The multi-tenant serving front. See module docs for the dataflow;
/// [`crate::Server`] wraps this in the TCP protocol, and tests drive it
/// in-process through [`ServeFront::submit_sql`].
pub struct ServeFront {
    core: SessionCore,
    registrar: Registrar,
    former: Mutex<Former<JobWork>>,
    shared: Mutex<Shared>,
    stop: AtomicBool,
}

impl ServeFront {
    /// Builds the front. Serving starts immediately, on the callers of
    /// [`ServeFront::submit_sql`].
    #[must_use]
    pub fn new(catalog: Catalog, db: Database, options: ServeOptions) -> Self {
        let ServeOptions { session, former } = options;
        ServeFront {
            shared: Mutex::new(Shared {
                store: Arc::new(MvStore::new(session.mv_budget_bytes)),
                seq: 0,
                tenants: BTreeMap::new(),
                totals: FrontTotals::default(),
            }),
            core: SessionCore::new(db, session),
            registrar: Registrar::new(catalog),
            former: Mutex::new(Former::new(former)),
            stop: AtomicBool::new(false),
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
    /// lane, and blocks until the formed batch commits (or fails) —
    /// running that batch, or a later one, on this thread when its
    /// forming rule fires here. Concurrent callers coalesce into shared
    /// MQO batches; each caller gets exactly its own queries' results
    /// back, bit-identical to a serial submission of the same
    /// statements.
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
        let (reply, answer) = mpsc::sync_channel(1);
        {
            let mut former = self.lock_former();
            // Re-check under the former lock: shutdown drains under
            // this lock after setting the flag, so a push that lands
            // here is guaranteed to be either drained (and answered) or
            // rejected — never orphaned.
            if self.stop.load(Ordering::SeqCst) {
                return Err(MqoError::shutdown("submit", "serving front is shut down"));
            }
            let work = JobWork { planned, reply };
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
        // Lead whatever batch is ready, else follow until the former's
        // next deadline. Nothing notifies: every queued job has its own
        // submitter waiting here no later than the job's ceiling, so no
        // job waits for a thread that is not coming.
        loop {
            if let Ok(answer) = answer.try_recv() {
                return answer;
            }
            let (batch, deadline) = {
                let mut former = self.lock_former();
                (former.form(Instant::now()), former.next_deadline())
            };
            if let Some(jobs) = batch {
                self.run_batch(jobs);
                continue;
            }
            let waited = match deadline {
                Some(d) => answer.recv_timeout(d.saturating_duration_since(Instant::now())),
                // Nothing is queued, so this job is in a running batch
                // or was answered by shutdown's drain.
                None => answer.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match waited {
                Ok(answer) => return answer,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(MqoError::invariant(
                        ErrorStage::Serve,
                        "submit",
                        "the batch carrying this job was dropped unanswered",
                    ))
                }
            }
        }
    }

    /// Stops serving: queued jobs are answered with `Shutdown` errors
    /// and later submissions are refused; batches that already formed
    /// finish and commit on their leaders' threads. Idempotent.
    pub fn shutdown(&self) {
        // Store and drain under the former lock: `submit_sql` re-checks
        // the flag under it before pushing, so whatever is queued now
        // is all that ever will be.
        let mut former = self.lock_former();
        self.stop.store(true, Ordering::SeqCst);
        for job in former.drain_all().into_iter().flatten() {
            job.payload
                .reply
                .send(Err(MqoError::shutdown(
                    "former",
                    "serving front shut down before the job was batched",
                )))
                .ok();
        }
    }

    fn lock_former(&self) -> MutexGuard<'_, Former<JobWork>> {
        self.former.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one formed batch on the calling thread — plan and execute
    /// against the published snapshots, then commit — and answers
    /// every job in it.
    fn run_batch(&self, jobs: Vec<Formed<JobWork>>) {
        let tenants: Vec<(String, u64)> = jobs
            .iter()
            .map(|j| (j.tenant.clone(), j.queries as u64))
            .collect();
        // Every job was lowered, and its columns published, before it
        // was queued: this snapshot covers every ColId of the batch.
        let catalog = self.registrar.snapshot();
        let committed = match self.stage(&catalog, &jobs) {
            Ok(staged) => {
                let verify = self.core.options().opt.verify;
                lock_shared(&self.shared).commit(staged, &tenants, verify)
            }
            Err(e) => {
                lock_shared(&self.shared).record_failure(&tenants);
                Err(e)
            }
        };
        let result = match committed {
            Ok(result) => result,
            Err(e) => {
                for job in jobs {
                    job.payload.reply.send(Err(e.clone())).ok();
                }
                return;
            }
        };
        // Split the batch's results back out per job, in formation
        // order, applying each query's ORDER BY and resolving column
        // names against the snapshot.
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
            // A budget-aborted query fails its own job with the abort
            // error; co-batched jobs still get their rows.
            let reply = match aborted {
                Some(e) => Err(e),
                None => Ok(out),
            };
            job.payload.reply.send(reply).ok();
        }
    }

    /// Plans and executes `jobs` as one batch, purely, against the
    /// latest published store.
    fn stage(&self, catalog: &Catalog, jobs: &[Formed<JobWork>]) -> Result<StagedSubmit, MqoError> {
        mqo_chaos::hit(Seam::SnapshotRead)?;
        // The store the plan may reuse temps from (refcounted — entries
        // stay alive even if evicted before the commit lands), and the
        // number the commit will most likely give the batch, for error
        // labels.
        let (store, seq) = {
            let sh = lock_shared(&self.shared);
            (Arc::clone(&sh.store), sh.seq + 1)
        };
        let planned: Vec<PlannedQuery> = jobs
            .iter()
            .flat_map(|j| j.payload.planned.iter().cloned())
            .collect();
        let params = FxHashMap::default();
        let staged = self
            .core
            .plan_execute(catalog, &to_batch(&planned), &params, seq, &store)?;
        // Executed but not committed: a fault here is a full rollback
        // by construction (the StagedSubmit drops).
        mqo_chaos::hit(Seam::Commit)?;
        Ok(staged)
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
