//! The chaos driver: replays the paper's workloads through the full
//! pipeline under injected faults and pins down the recovery contract
//! at every seam:
//!
//! * a firing failpoint surfaces as `Err(MqoError)` with kind
//!   `fault-injected` — never a panic;
//! * a failed submit rolls the session's cross-batch state back to the
//!   last good batch (`verify_store` stays clean) and the session keeps
//!   serving;
//! * clearing the failpoints and retrying produces results bit-identical
//!   to a run that never saw a fault;
//! * seeded random multi-fault schedules are exactly reproducible.
//!
//! The failpoints are compiled in through the crate's self
//! dev-dependency (`features = ["enable"]`), so this suite runs under a
//! plain `cargo test` while release builds stay fault-free; every test
//! still guards on [`mqo_chaos::enabled`] for builds that strip
//! dev-features. Failpoint state is process-global, so the tests
//! serialize on one mutex.

use mqo_chaos::{Schedule, Seam};
use mqo_core::{Options, VerifyLevel};
use mqo_exec::{generate_database, normalize_result, Admission, MvStore, Table};
use mqo_logical::Batch;
use mqo_session::{MqoSession, SessionOptions};
use mqo_util::MqoErrorKind;
use mqo_workloads::{Scaleup, Tpcd};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const SCALE: f64 = 0.002;

/// A fully verified serving session over the TPC-D stream, plus the
/// batches to feed it.
fn serving() -> (MqoSession, Vec<Batch>) {
    let w = Tpcd::new(SCALE);
    let batches = w.serving_batches(3);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let opts = SessionOptions::new().with_opt(Options::new().with_verify(VerifyLevel::Full));
    (MqoSession::new(w.catalog, db, opts), batches)
}

fn store_is_clean(session: &MqoSession) -> bool {
    mqo_verify::verify_store(session.mv_store(), VerifyLevel::Full).is_clean()
}

/// Single-fault sweep: for every seam, arm one shot before a cold
/// submit. If the workload crosses the seam the submit must fail with a
/// typed fault and roll back; either way the retry must match the
/// no-fault run exactly.
#[test]
fn single_fault_at_every_seam_is_recoverable() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    let (mut reference, batches) = serving();
    let base = reference.submit(&batches[0]).expect("no-fault reference");

    let mut fired_seams = BTreeSet::new();
    for seam in Seam::ALL {
        let (mut s, batches) = serving();
        mqo_chaos::install(Schedule::single(seam, 1));
        let faulted = s.submit(&batches[0]);
        let fired = mqo_chaos::fired() > 0;
        mqo_chaos::clear();
        let mut rolled_back = false;
        match (fired, faulted) {
            (true, Err(e)) => {
                rolled_back = true;
                fired_seams.insert(seam.name());
                assert_eq!(e.kind, MqoErrorKind::FaultInjected, "seam {seam:?}");
                assert!(e.render().contains(seam.name()), "render names the seam");
                // the rollback left no partial cross-batch state behind
                assert!(
                    s.mv_store().is_empty(),
                    "seam {seam:?}: store not rolled back"
                );
                assert!(
                    store_is_clean(&s),
                    "seam {seam:?}: store dirty after rollback"
                );
                assert_eq!(s.stats().failed_submits, 1);
                assert_eq!(s.stats().rolled_back, 1);
            }
            // the workload never crossed this seam (e.g. eviction with
            // an empty store): the submit must simply succeed
            (false, Ok(_)) => {}
            (fired, r) => panic!("seam {seam:?}: fired={fired} but result {r:?}"),
        }
        // graceful degradation: the session keeps serving, and the
        // retry is bit-identical to the run that never saw a fault
        // (cost included after a rollback; after an unfired clean
        // submit the resubmit runs warm, cheaper by design)
        let retry = s
            .submit(&batches[0])
            .expect("retry after clearing failpoints");
        if rolled_back {
            assert_eq!(retry.cost, base.cost, "seam {seam:?}");
        }
        assert_eq!(retry.results.len(), base.results.len());
        for (a, b) in retry.results.iter().zip(&base.results) {
            assert_eq!(normalize_result(a), normalize_result(b), "seam {seam:?}");
        }
    }
    // the cold serving batch demonstrably crosses the whole pipeline
    for expected in [
        "cost-propagation",
        "extract",
        "fingerprint",
        "warm-lookup",
        "temp-build",
        "exec-operator",
        "column-alloc",
        "admission",
    ] {
        assert!(
            fired_seams.contains(expected),
            "seam {expected} never fired"
        );
    }
}

/// The `nth` knob reaches past the first crossing: the 3rd exec-operator
/// hit fails mid-plan and the store still rolls back whole.
#[test]
fn mid_plan_fault_rolls_back_the_whole_batch() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    let (mut s, batches) = serving();
    mqo_chaos::install(Schedule::single(Seam::ExecOperator, 3));
    let err = s.submit(&batches[0]).expect_err("3rd operator eval faults");
    mqo_chaos::clear();
    assert_eq!(err.kind, MqoErrorKind::FaultInjected);
    assert!(
        s.mv_store().is_empty(),
        "partially built temps leaked into the store"
    );
    assert!(store_is_clean(&s));
    s.submit(&batches[0])
        .expect("session serves after mid-plan fault");
}

/// Optimizer-level replay (the fig. 7/8 scaleup workload, Greedy and
/// the out-of-crate KS15 strategy): search faults surface as typed
/// errors and a rerun reproduces the no-fault answer exactly.
#[test]
fn search_faults_err_and_rerun_reproduces_the_plan() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    let w = Scaleup::new(7);
    let batch = w.cq(4);
    let mut optimizer = mqo_core::Optimizer::new(&w.catalog);
    optimizer
        .register(Arc::new(mqo_ks15::Ks15Greedy))
        .expect("KS15 name is free");
    let ctx = optimizer.prepare(&batch);
    for name in ["Greedy", "KS15-Greedy"] {
        let base = optimizer.search(&ctx, name).expect("no-fault search");
        for seam in [Seam::CostPropagation, Seam::Extract] {
            mqo_chaos::install(Schedule::single(seam, 1));
            let faulted = optimizer.search(&ctx, name);
            let fired = mqo_chaos::fired() > 0;
            mqo_chaos::clear();
            if fired {
                let e = faulted.expect_err("fired fault must surface");
                assert_eq!(e.kind, MqoErrorKind::FaultInjected, "{name}/{seam:?}");
            } else {
                faulted.expect("unfired schedule must not perturb the search");
            }
            let retry = optimizer.search(&ctx, name).expect("rerun");
            assert_eq!(retry.cost, base.cost, "{name}/{seam:?}");
            assert_eq!(
                retry.plan.materialized, base.plan.materialized,
                "{name}/{seam:?}"
            );
        }
    }
}

/// Seeded random multi-fault schedules: the same seed produces the
/// same Ok/Err sequence on every run, and after the storm the session
/// (and its store accounting) is intact.
#[test]
fn random_schedules_are_reproducible_and_survivable() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    for seed in [11u64, 1999, 0xD06] {
        let mut runs: Vec<Vec<bool>> = Vec::new();
        for _ in 0..2 {
            mqo_chaos::install(Schedule::random(seed, 2_000)); // 0.2% per crossing
            let (mut s, batches) = serving();
            let mut outcomes = Vec::new();
            for b in &batches {
                match s.submit(b) {
                    Ok(_) => outcomes.push(true),
                    Err(e) => {
                        assert_eq!(e.kind, MqoErrorKind::FaultInjected);
                        outcomes.push(false);
                    }
                }
            }
            mqo_chaos::clear();
            assert!(store_is_clean(&s), "seed {seed}: dirty store after storm");
            let calm = s.submit(&batches[0]).expect("post-storm submit");
            assert!(!calm.results.is_empty());
            runs.push(outcomes);
        }
        assert_eq!(runs[0], runs[1], "seed {seed}: schedule not reproducible");
    }
}

/// The eviction seam, driven directly at the store: a fault while
/// making room must not cost the cache a resident, and the retry
/// performs the planned eviction.
#[test]
fn eviction_fault_leaves_the_store_untouched() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    mqo_chaos::clear();
    let t = Arc::new(Table::new(
        vec![mqo_catalog::ColId(0)],
        (0..100).map(|i| vec![mqo_expr::Value::Int(i)]).collect(),
    ));
    let mut store = MvStore::new(t.approx_bytes()); // room for exactly one
    store
        .try_admit(1, Arc::clone(&t), 1.0, 1.0, 0)
        .expect("no failpoints armed");
    let before = store.bytes_used();
    mqo_chaos::install(Schedule::single(Seam::Eviction, 1));
    let err = store
        .try_admit(2, Arc::clone(&t), 9.0, 1.0, 1)
        .expect_err("eviction seam fires while making room");
    mqo_chaos::clear();
    assert_eq!(err.kind, MqoErrorKind::FaultInjected);
    assert!(store.contains(1) && !store.contains(2));
    assert_eq!(store.bytes_used(), before);
    let adm = store.try_admit(2, t, 9.0, 1.0, 1).expect("retry");
    assert_eq!(adm, Admission::Admitted { evicted: 1 });
    assert!(store.contains(2) && !store.contains(1));
}
