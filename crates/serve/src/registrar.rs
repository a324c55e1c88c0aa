//! The catalog registrar: serialized SQL lowering over ONE shared
//! catalog, published to the batches as immutable snapshots.
//!
//! This closes the `catalog_mut()` concurrency hazard the single-tenant
//! REPL tolerated: SQL lowering may register derived columns (aggregate
//! outputs) in the catalog, so two tenants lowering concurrently would
//! race on `ColId` assignment. The registrar serializes every lowering
//! through one mutex that owns both the catalog and the [`SqlPlanner`]
//! — and sharing the planner's aggregate memo is itself load-bearing:
//! the same `SUM(expr)` from two tenants lands on the same derived
//! `ColId`, so their physical plans fingerprint identically and one
//! tenant's cached temp serves the other's query.
//!
//! The catalog is append-only under lowering, so a published
//! [`Registrar::snapshot`] is never invalidated — only superseded by a
//! wider one. The thread that forms a batch takes the *current*
//! snapshot; every job in the batch was lowered (and its columns
//! published) strictly before it was queued, so the snapshot covers
//! every `ColId` the batch references.

use std::sync::{Arc, Mutex, PoisonError};

use mqo_catalog::Catalog;
use mqo_sql::{PlannedQuery, SqlPlanner};
use mqo_util::{ErrorStage, MqoError, MqoErrorKind};

struct Inner {
    catalog: Catalog,
    planner: SqlPlanner,
}

/// Serialized SQL lowering + snapshot publication. See module docs.
pub struct Registrar {
    inner: Mutex<Inner>,
    snapshot: Mutex<Arc<Catalog>>,
}

impl Registrar {
    /// A registrar over the serving catalog.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        let snapshot = Mutex::new(Arc::new(catalog.clone()));
        Registrar {
            inner: Mutex::new(Inner {
                catalog,
                planner: SqlPlanner::new(),
            }),
            snapshot,
        }
    }

    /// The latest published catalog snapshot. Covers every `ColId` of
    /// every job lowered before this call.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.snapshot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Lowers a `;`-separated SQL statement list into planned queries,
    /// registering any new derived columns and republishing the
    /// snapshot before returning — so the caller may queue the job the
    /// moment this returns.
    ///
    /// # Errors
    ///
    /// A parse or planning failure returns an [`MqoErrorKind::Sql`]
    /// error whose `detail` carries the caret diagnostic rendered
    /// against the submitted text. The shared catalog is only ever
    /// appended to, so a failed lowering cannot corrupt it for other
    /// tenants.
    pub fn lower(&self, sql: &str) -> Result<Vec<PlannedQuery>, MqoError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let before = inner.catalog.columns().len();
        let planned = {
            let Inner { catalog, planner } = &mut *inner;
            planner.plan_text(catalog, sql).map_err(|e| {
                MqoError::new(
                    MqoErrorKind::Sql,
                    ErrorStage::Serve,
                    "sql",
                    e.render(sql),
                    "SQL statement rejected",
                )
            })?
        };
        if inner.catalog.columns().len() != before {
            // Publish the wider catalog before the job can be queued.
            *self.snapshot.lock().unwrap_or_else(PoisonError::into_inner) =
                Arc::new(inner.catalog.clone());
        }
        Ok(planned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_workloads::Tpcd;

    #[test]
    fn concurrent_lowering_is_serialized_and_snapshots_cover_jobs() {
        let reg = Registrar::new(Tpcd::new(0.001).catalog);
        let base_cols = reg.snapshot().columns().len();
        let sql = "select o_orderdate, sum(l_quantity) from orders, lineitem \
                   where o_orderkey = l_orderkey group by o_orderdate;";
        let results: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let planned = reg.lower(sql).expect("valid SQL lowers");
                        // The snapshot taken after lowering must resolve
                        // the derived aggregate column the plan references.
                        let snap = reg.snapshot();
                        assert!(snap.columns().len() > base_cols);
                        planned
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        // Shared planner memo: the SAME derived ColId for the same
        // aggregate across all tenants (this is what makes cross-tenant
        // cache sharing fingerprint-compatible).
        let first = format!("{:?}", results[0][0].plan);
        for r in &results {
            assert_eq!(format!("{:?}", r[0].plan), first);
        }
    }

    #[test]
    fn bad_sql_is_a_typed_error_with_a_caret_render() {
        let reg = Registrar::new(Tpcd::new(0.001).catalog);
        let e = reg.lower("select frobnicate from nowhere;").unwrap_err();
        assert_eq!(e.kind, MqoErrorKind::Sql);
        assert!(e.detail.contains('^'), "caret render travels in detail");
        // The catalog is untouched by the failure.
        let before = reg.snapshot().columns().len();
        assert_eq!(reg.snapshot().columns().len(), before);
    }
}
