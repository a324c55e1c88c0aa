//! The commit actor: the ONE place shared cross-batch state mutates.
//!
//! Planner workers run `SessionCore::plan_execute` concurrently against
//! read-only [`MvStore`] snapshots; everything they want to change —
//! warm-hit accounting, admissions, evictions, per-tenant counters —
//! arrives here as a message. The actor owns the authoritative store,
//! applies each staged submit with the same clone-swap transaction as
//! `MqoSession::submit` (a failed commit is dropped, never half
//! applied), and publishes the committed store itself — one
//! `Arc<MvStore>` shared by the actor and every reader — so workers
//! read it with one cheap lock + refcount bump.
//!
//! Serializing commits through an actor rather than a store-wide mutex
//! keeps the expensive work (plan, search, execute) outside any lock:
//! the only serialized section is admission arithmetic over table
//! handles, which is microseconds per batch.

use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};

use mqo_exec::MvStore;
use mqo_session::{commit_staged, BatchResult, StagedSubmit};
use mqo_util::MqoError;
use mqo_verify::VerifyLevel;

/// Per-tenant serving counters, published by the commit actor.
///
/// Batch-level counters (`cache_hits`, `temps_built`) are attributed to
/// **every tenant riding the formed batch**: sharing is the product the
/// optimizer sells, so a hit on a temp one tenant built and another
/// reused legitimately belongs to both ledgers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Formed batches this tenant rode.
    pub batches: u64,
    /// Queries this tenant executed.
    pub queries: u64,
    /// Warm cache hits in batches this tenant rode.
    pub cache_hits: u64,
    /// Temps built in batches this tenant rode.
    pub temps_built: u64,
    /// Admissions from batches this tenant rode.
    pub admitted: u64,
    /// Jobs that failed (typed error) instead of completing.
    pub failed: u64,
}

/// Global serving counters (all tenants).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontTotals {
    /// Formed batches committed.
    pub batches: u64,
    /// Queries executed.
    pub queries: u64,
    /// Warm cache hits.
    pub cache_hits: u64,
    /// Temps built.
    pub temps_built: u64,
    /// Batches answered with a stored plan instead of a fresh search.
    pub plan_reuses: u64,
    /// Temps admitted to the store.
    pub admitted: u64,
    /// Entries evicted by admissions.
    pub evicted: u64,
    /// Offers rejected by the admission policy.
    pub rejected: u64,
    /// Batches that degraded (budget expiry, aborted queries).
    pub degraded: u64,
    /// Batches that failed with a typed error.
    pub failed: u64,
    /// Failed batches whose staged cache effects were rolled back.
    pub rolled_back: u64,
}

/// State published by the actor, read by workers and `stats()`.
pub(crate) struct Shared {
    /// Latest committed store snapshot (refcounted; cheap to clone).
    pub store: Arc<MvStore>,
    /// Per-tenant ledgers (ordered for deterministic stats renders).
    pub tenants: BTreeMap<String, TenantStats>,
    /// Global ledger.
    pub totals: FrontTotals,
}

impl Shared {
    /// Records one failed batch against the global and its riders'
    /// ledgers.
    fn record_failure(&mut self, tenants: &[(String, u64)]) {
        self.totals.failed += 1;
        for (tenant, _) in tenants {
            self.tenants.entry(tenant.clone()).or_default().failed += 1;
        }
    }
}

pub(crate) fn lock_shared(shared: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A message to the commit actor.
pub(crate) enum ActorMsg {
    /// Commit one executed batch's staged effects; `tenants` lists
    /// `(tenant, queries)` per job in the batch.
    Commit {
        staged: Box<StagedSubmit>,
        tenants: Vec<(String, u64)>,
        reply: SyncSender<Result<BatchResult, MqoError>>,
    },
    /// Record a batch that failed before commit (plan/execute error or
    /// an injected fault at a serving seam).
    Fail { tenants: Vec<(String, u64)> },
    /// Drain and exit.
    Stop,
}

/// The commit actor's state: the authoritative store (the very `Arc`
/// that `Shared` publishes after each successful commit) and the
/// commit sequence number.
pub(crate) struct CommitActor {
    store: Arc<MvStore>,
    seq: u64,
    verify: VerifyLevel,
}

impl CommitActor {
    /// An actor over `store`, which the caller also publishes in the
    /// `Shared` it hands to [`CommitActor::run`].
    pub(crate) fn new(store: Arc<MvStore>, verify: VerifyLevel) -> Self {
        CommitActor {
            store,
            seq: 0,
            verify,
        }
    }

    /// Runs the actor loop to completion.
    pub(crate) fn run(mut self, rx: &Receiver<ActorMsg>, shared: &Mutex<Shared>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                ActorMsg::Commit {
                    staged,
                    tenants,
                    reply,
                } => {
                    reply.send(self.commit(*staged, &tenants, shared)).ok();
                }
                ActorMsg::Fail { tenants } => lock_shared(shared).record_failure(&tenants),
                ActorMsg::Stop => break,
            }
        }
    }

    /// Transactional clone-swap, exactly like `MqoSession`: commit onto
    /// a staged copy — the one O(entries) clone of the commit — and on
    /// success make that copy both the actor's store and the published
    /// snapshot. On failure the copy drops: the rollback, with the
    /// published snapshot still the last good store.
    fn commit(
        &mut self,
        mut staged: StagedSubmit,
        tenants: &[(String, u64)],
        shared: &Mutex<Shared>,
    ) -> Result<BatchResult, MqoError> {
        self.seq += 1;
        let mut staged_store = (*self.store).clone();
        let committed = commit_staged(&mut staged_store, &mut staged, self.seq, self.verify);
        let mut sh = lock_shared(shared);
        if let Err(e) = committed {
            sh.record_failure(tenants);
            sh.totals.rolled_back += 1;
            return Err(e);
        }
        self.store = Arc::new(staged_store);
        sh.store = Arc::clone(&self.store);
        let result = staged.result;
        let batch_queries: u64 = tenants.iter().map(|(_, q)| q).sum();
        sh.totals.batches += 1;
        sh.totals.queries += batch_queries;
        sh.totals.cache_hits += result.cache_hits as u64;
        sh.totals.temps_built += result.temps_built as u64;
        sh.totals.plan_reuses += u64::from(result.plan_reused());
        sh.totals.admitted += result.admitted as u64;
        sh.totals.evicted += result.evicted as u64;
        sh.totals.rejected += result.rejected as u64;
        sh.totals.degraded += u64::from(result.degraded);
        for (tenant, queries) in tenants {
            let t = sh.tenants.entry(tenant.clone()).or_default();
            t.batches += 1;
            t.queries += queries;
            t.cache_hits += result.cache_hits as u64;
            t.temps_built += result.temps_built as u64;
            t.admitted += result.admitted as u64;
        }
        Ok(result)
    }
}

/// Best-effort send that tolerates an already-stopped actor.
pub(crate) fn send_actor(tx: &Sender<ActorMsg>, msg: ActorMsg) {
    tx.send(msg).ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_exec::generate_database;
    use mqo_session::{SessionCore, SessionOptions, DEFAULT_MV_BUDGET_BYTES};
    use mqo_util::FxHashMap;
    use mqo_workloads::Tpcd;

    /// The commit's one store clone is the published snapshot: after a
    /// commit the actor and `Shared` hold the same `Arc`, and the store
    /// readers held before the commit is untouched.
    #[test]
    fn published_snapshot_is_the_actors_store() {
        let w = Tpcd::new(0.001);
        let db = generate_database(&w.catalog, 42, usize::MAX);
        let core = SessionCore::new(db, SessionOptions::new());
        let before = Arc::new(MvStore::new(DEFAULT_MV_BUDGET_BYTES));
        let shared = Mutex::new(Shared {
            store: Arc::clone(&before),
            tenants: BTreeMap::new(),
            totals: FrontTotals::default(),
        });
        let mut actor = CommitActor::new(Arc::clone(&before), VerifyLevel::Full);

        let staged = core
            .plan_execute(&w.catalog, &w.q11(), &FxHashMap::default(), 0, &before)
            .expect("Q11 plans and executes");
        let result = actor
            .commit(staged, &[("t".to_string(), 2)], &shared)
            .expect("commit succeeds");

        assert!(result.admitted > 0, "Q11 shares a temp worth admitting");
        let published = Arc::clone(&lock_shared(&shared).store);
        assert!(Arc::ptr_eq(&published, &actor.store));
        assert_eq!(published.len(), result.admitted);
        assert!(before.is_empty(), "the pre-commit snapshot is immutable");
    }
}
