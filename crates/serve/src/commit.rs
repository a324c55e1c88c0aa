//! The published serving state and its commit: the ONE place shared
//! cross-batch state mutates.
//!
//! Batches run `SessionCore::plan_execute` concurrently against
//! read-only [`MvStore`] snapshots; everything they want to change —
//! warm-hit accounting, admissions, evictions, per-tenant counters —
//! lands in [`Shared::commit`], run under the mutex that publishes the
//! store. It applies the staged submit with the session's own
//! clone-swap transaction ([`mqo_session::commit`]: a failed commit is
//! dropped, never half applied) and publishes the committed copy, so a
//! batch reads the latest store with one cheap lock + refcount bump.
//!
//! The expensive work (plan, search, execute) stays outside the lock:
//! the only serialized section is admission arithmetic over table
//! handles, which is microseconds per batch.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use mqo_exec::MvStore;
use mqo_session::{BatchResult, StagedSubmit};
use mqo_util::MqoError;
use mqo_verify::VerifyLevel;

/// Per-tenant serving counters, published by each commit.
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

/// The published state: read by batches and `stats()`, changed only by
/// [`Shared::commit`] and [`Shared::record_failure`].
pub(crate) struct Shared {
    /// Latest committed store snapshot (refcounted; cheap to clone).
    pub store: Arc<MvStore>,
    /// Commits so far — the store's clock.
    pub seq: u64,
    /// Per-tenant ledgers (ordered for deterministic stats renders).
    pub tenants: BTreeMap<String, TenantStats>,
    /// Global ledger.
    pub totals: FrontTotals,
}

impl Shared {
    /// Records one failed batch against the global and its riders'
    /// ledgers; `tenants` lists `(tenant, queries)` per job.
    pub(crate) fn record_failure(&mut self, tenants: &[(String, u64)]) {
        self.totals.failed += 1;
        for (tenant, _) in tenants {
            self.tenants.entry(tenant.clone()).or_default().failed += 1;
        }
    }

    /// Commits one executed batch: the session's clone-swap onto the
    /// published store, then the ledgers. On failure the copy drops and
    /// the published store is still the last good one.
    pub(crate) fn commit(
        &mut self,
        mut staged: StagedSubmit,
        tenants: &[(String, u64)],
        verify: VerifyLevel,
    ) -> Result<BatchResult, MqoError> {
        self.seq += 1;
        match mqo_session::commit(&self.store, &mut staged, self.seq, verify) {
            Ok(store) => self.store = Arc::new(store),
            Err(e) => {
                self.record_failure(tenants);
                self.totals.rolled_back += 1;
                return Err(e);
            }
        }
        let result = staged.result;
        let batch_queries: u64 = tenants.iter().map(|(_, q)| q).sum();
        self.totals.batches += 1;
        self.totals.queries += batch_queries;
        self.totals.cache_hits += result.cache_hits as u64;
        self.totals.temps_built += result.temps_built as u64;
        self.totals.plan_reuses += u64::from(result.plan_reused());
        self.totals.admitted += result.admitted as u64;
        self.totals.evicted += result.evicted as u64;
        self.totals.rejected += result.rejected as u64;
        self.totals.degraded += u64::from(result.degraded);
        for (tenant, queries) in tenants {
            let t = self.tenants.entry(tenant.clone()).or_default();
            t.batches += 1;
            t.queries += queries;
            t.cache_hits += result.cache_hits as u64;
            t.temps_built += result.temps_built as u64;
            t.admitted += result.admitted as u64;
        }
        Ok(result)
    }
}

pub(crate) fn lock_shared(shared: &Mutex<Shared>) -> std::sync::MutexGuard<'_, Shared> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_exec::generate_database;
    use mqo_session::{SessionCore, SessionOptions, DEFAULT_MV_BUDGET_BYTES};
    use mqo_util::FxHashMap;
    use mqo_workloads::Tpcd;

    /// The committed copy is what gets published, and the store readers
    /// held before the commit is untouched.
    #[test]
    fn commit_publishes_the_committed_copy() {
        let w = Tpcd::new(0.001);
        let db = generate_database(&w.catalog, 42, usize::MAX);
        let core = SessionCore::new(db, SessionOptions::new());
        let before = Arc::new(MvStore::new(DEFAULT_MV_BUDGET_BYTES));
        let mut shared = Shared {
            store: Arc::clone(&before),
            seq: 0,
            tenants: BTreeMap::new(),
            totals: FrontTotals::default(),
        };

        let staged = core
            .plan_execute(&w.catalog, &w.q11(), &FxHashMap::default(), 1, &before)
            .expect("Q11 plans and executes");
        let result = shared
            .commit(staged, &[("t".to_string(), 2)], VerifyLevel::Full)
            .expect("commit succeeds");

        assert!(result.admitted > 0, "Q11 shares a temp worth admitting");
        assert!(!Arc::ptr_eq(&shared.store, &before));
        assert_eq!(shared.store.len(), result.admitted);
        assert!(before.is_empty(), "the pre-commit snapshot is immutable");
        assert_eq!(shared.seq, 1);
        assert_eq!(shared.totals.batches, 1);
        assert_eq!(shared.tenants["t"].queries, 2);
    }
}
