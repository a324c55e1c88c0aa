//! Fault injection at the serving seams: a faulted submission is
//! answered with a typed error and isolated — the shared store keeps
//! exactly the state of the last successful commit, other tenants keep
//! being served warm off it, and the fault never panics the thread
//! running the batch or poisons the front.
//!
//! Failpoint state is process-global, so the test serializes on one
//! mutex (same pattern as `driver.rs`; cargo runs test binaries one at
//! a time, so the two suites never interleave).

use std::sync::{Mutex, MutexGuard, PoisonError};

use mqo_chaos::{Schedule, Seam};
use mqo_core::VerifyLevel;
use mqo_exec::generate_database;
use mqo_serve::{QueryResult, ServeFront, ServeOptions};
use mqo_util::{ErrorStage, MqoErrorKind};
use mqo_workloads::Tpcd;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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

fn front() -> ServeFront {
    let w = Tpcd::new(0.002);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    ServeFront::new(w.catalog, db, ServeOptions::new())
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

/// For each serving seam — enqueue, then the snapshot read and the
/// commit on the thread that formed the batch — one armed fault fails
/// exactly the victim's submission, with the full isolation contract
/// checked after.
#[test]
fn serving_faults_isolate_to_the_faulted_submit() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    for seam in [Seam::FormerEnqueue, Seam::SnapshotRead, Seam::Commit] {
        let front = front();
        // A steady tenant warms the store before the fault is armed.
        let baseline = front.submit_sql("steady", SQL).expect("cold baseline");
        let store_before = front.mv_snapshot();
        let (totals_before, _) = front.stats();
        assert!(!store_before.is_empty(), "baseline left temps to protect");

        mqo_chaos::install(Schedule::single(seam, 1));
        let err = front
            .submit_sql("victim", SQL)
            .expect_err("armed seam must fail the victim's submit");
        let fired = mqo_chaos::fired() > 0;
        mqo_chaos::clear();

        assert!(fired, "seam {seam:?} never fired");
        assert_eq!(err.kind, MqoErrorKind::FaultInjected, "seam {seam:?}");
        assert_eq!(err.stage, ErrorStage::Serve, "seam {seam:?}");
        assert!(
            err.render().contains(seam.name()),
            "render names the seam: {err}"
        );

        // The shared store is bit-for-bit the last committed state…
        let store_after = front.mv_snapshot();
        assert_eq!(store_after.len(), store_before.len(), "seam {seam:?}");
        assert_eq!(
            store_after.bytes_used(),
            store_before.bytes_used(),
            "seam {seam:?}"
        );
        assert!(
            mqo_verify::verify_store(&store_after, VerifyLevel::Full).is_clean(),
            "seam {seam:?}: store dirty after fault"
        );

        // …and the steady tenant keeps being served warm off it, with
        // the same bits as before the fault.
        let again = front.submit_sql("steady", SQL).expect("post-fault submit");
        assert_eq!(canon(&again), canon(&baseline), "seam {seam:?}");
        let (totals, tenants) = front.stats();
        assert!(totals.cache_hits > 0, "seam {seam:?}: no warm reuse");

        // Batch-side seams fail a formed batch: the ledger records it
        // against the victim. The enqueue seam fails before the job
        // ever reaches shared state, so nothing is recorded at all.
        if seam == Seam::FormerEnqueue {
            assert_eq!(totals.failed, totals_before.failed, "seam {seam:?}");
            assert!(!tenants.contains_key("victim"), "seam {seam:?}");
        } else {
            assert_eq!(totals.failed, totals_before.failed + 1, "seam {seam:?}");
            assert!(
                tenants.get("victim").is_some_and(|t| t.failed > 0),
                "seam {seam:?}: victim's failure not in the ledger"
            );
        }
        front.shutdown();
    }
}

/// A fault mid-storm does not wedge shutdown: the front drains, joins,
/// and later submissions get typed `Shutdown` errors, not hangs.
#[test]
fn faulted_front_still_shuts_down_cleanly() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    let front = front();
    front.submit_sql("steady", SQL).expect("cold");
    mqo_chaos::install(Schedule::single(Seam::Commit, 1));
    front
        .submit_sql("victim", SQL)
        .expect_err("armed commit fault");
    mqo_chaos::clear();
    front.shutdown();
    let e = front.submit_sql("steady", SQL).unwrap_err();
    assert_eq!(e.kind, MqoErrorKind::Shutdown);
}

/// A fault inside the commit's own transaction — the admission seam
/// fires under the store mutex, after the batch executed — drops the
/// staged store: nothing is republished (the snapshot is the very same
/// `Arc` as before), the rollback is counted, and a retry commits.
#[test]
fn failed_commit_republishes_nothing() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    let front = front();
    front.submit_sql("steady", SQL).expect("cold baseline");
    let before = front.mv_snapshot();
    // Another nation: new temps, so the commit has something to admit.
    let other = SQL.replace("n_name_000007", "n_name_000003");

    mqo_chaos::install(Schedule::single(Seam::Admission, 1));
    let err = front
        .submit_sql("victim", &other)
        .expect_err("armed admission seam must fail the commit");
    mqo_chaos::clear();
    assert_eq!(err.kind, MqoErrorKind::FaultInjected);
    assert_eq!(err.stage, ErrorStage::Admission);

    let (totals, tenants) = front.stats();
    assert_eq!(totals.rolled_back, 1);
    assert!(tenants.get("victim").is_some_and(|t| t.failed == 1));
    assert!(
        std::sync::Arc::ptr_eq(&before, &front.mv_snapshot()),
        "a failed commit must leave the published store untouched"
    );

    front.submit_sql("victim", &other).expect("retry commits");
    let after = front.mv_snapshot();
    assert!(
        after.len() > before.len(),
        "the retry's temps were admitted"
    );
    assert!(mqo_verify::verify_store(&after, VerifyLevel::Full).is_clean());
    front.shutdown();
}
