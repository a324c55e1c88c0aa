//! The executor's governor and failpoint contract, pinned across the
//! pipelining of selections into their projections:
//!
//! * every plan node passes the `exec-operator` failpoint exactly once,
//!   so the per-execution hit counts of BQ1–BQ5 are the ones measured
//!   before selections were pipelined (chaos schedules keep addressing
//!   the same operator evaluations);
//! * an already-expired deadline aborts each query at the node it did
//!   before: the query root, whose checkpoint runs first;
//! * the memory budget charges materialized outputs only — a
//!   selection its `Project` gathers is not one.

use mqo_chaos::{Schedule, Seam};
use mqo_core::Optimizer;
use mqo_exec::{
    execute_plan_with, generate_database, try_execute_plan_seeded, vops, ExecOptions, ExecOutcome,
};
use mqo_expr::{Atom, CmpOp, Predicate};
use mqo_logical::{Batch, LogicalPlan, Query};
use mqo_util::{FxHashMap, MqoErrorKind};
use mqo_workloads::Tpcd;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// Failpoint hit counters are process-global and every execution bumps
// them, so every test here runs alone.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const SCALE: f64 = 0.002;

/// `exec-operator` hits of one vectorized execution of BQ*i*'s Greedy
/// plan, measured at the commit before selections were pipelined.
const BQ_EXEC_OPERATOR_HITS: [u64; 5] = [23, 54, 84, 95, 116];

#[test]
fn exec_operator_hits_per_bq_execution_are_pinned() {
    let _g = serial();
    if !mqo_chaos::enabled() {
        return;
    }
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let optimizer = Optimizer::new(&w.catalog);
    for (i, &want) in (1..=5).zip(&BQ_EXEC_OPERATOR_HITS) {
        let ctx = optimizer.prepare(&w.bq(i));
        let r = optimizer.search(&ctx, "Greedy").unwrap();
        // armed, but on a hit no execution reaches
        mqo_chaos::install(Schedule::single(Seam::ExecOperator, u64::MAX));
        let out = execute_plan_with(
            &w.catalog,
            &ctx.pdag,
            &r.plan,
            &db,
            &FxHashMap::default(),
            ExecOptions::default(),
        );
        let hits = mqo_chaos::hits(Seam::ExecOperator);
        mqo_chaos::clear();
        assert!(out.rows_out > 0, "BQ{i} executes for real");
        assert_eq!(hits, want, "BQ{i}");
    }
}

#[test]
fn expired_deadline_aborts_each_query_at_its_root() {
    let _g = serial();
    let w = Tpcd::new(SCALE);
    let db = generate_database(&w.catalog, 42, usize::MAX);
    let optimizer = Optimizer::new(&w.catalog);
    for i in 1..=5 {
        let ctx = optimizer.prepare(&w.bq(i));
        let r = optimizer.search(&ctx, "Greedy").unwrap();
        let exec = ExecOptions {
            deadline: Some(Instant::now()),
            ..ExecOptions::default()
        };
        let out = try_execute_plan_seeded(
            &w.catalog,
            &ctx.pdag,
            &r.plan,
            &db,
            &FxHashMap::default(),
            exec,
            &FxHashMap::default(),
        )
        .expect("budget expiry degrades, never errors")
        .outcome;
        assert_eq!(out.temps_built, 0, "BQ{i}");
        for (q, e) in r.plan.query_roots.iter().zip(&out.query_errors) {
            let e = e.as_ref().expect("every query aborts");
            assert_eq!(e.kind, MqoErrorKind::TimeBudgetExpired, "BQ{i}");
            assert_eq!(e.site, q.to_string(), "BQ{i}");
        }
    }
}

/// Two queries over lineitem, `π σ` each; the second's checkpoints run
/// after the first's outputs were charged. A budget that covers the
/// scan and the narrow projection, but not the full-width Filter output
/// the engine used to gather and charge in between, now lets the second
/// query through — and one byte less than what is really charged still
/// stops it, so the budget is live.
#[test]
fn mem_budget_charges_only_materialized_outputs() {
    let _g = serial();
    let w = Tpcd::new(SCALE);
    let cat = &w.catalog;
    let db = generate_database(cat, 42, usize::MAX);
    let lineitem = cat.table_by_name("lineitem").expect("TPC-D").id;
    let [quantity, price] = ["l_quantity", "l_extendedprice"].map(|c| cat.col("lineitem", c));
    let pred = |op| Predicate::atom(Atom::cmp(quantity, op, 10i64));
    let query = |name, op| {
        let q = LogicalPlan::scan(lineitem)
            .select(pred(op))
            .project(vec![price]);
        Query::new(name, q)
    };
    let batch = Batch::of(vec![query("low", CmpOp::Lt), query("high", CmpOp::Ge)]);
    let optimizer = Optimizer::new(cat);
    let ctx = optimizer.prepare(&batch);
    let plan = optimizer.search(&ctx, "Volcano").unwrap().plan;
    let pdag = ctx.pdag;
    let run = |mem_budget_bytes| -> ExecOutcome {
        let exec = ExecOptions {
            mem_budget_bytes,
            ..ExecOptions::default()
        };
        execute_plan_with(cat, &pdag, &plan, &db, &FxHashMap::default(), exec)
    };
    let base = db.table(lineitem);
    let free = run(None);
    let scan = base.approx_bytes();
    let projected = free.results[0].approx_bytes();
    let full_width = vops::filter(&base, &pred(CmpOp::Lt), &FxHashMap::default()).approx_bytes();
    assert!(
        full_width > 4 * projected,
        "the pad column makes the Filter wide"
    );

    let charged = scan + projected;
    let governed = run(Some(charged + full_width / 2));
    assert!(governed.query_errors.iter().all(Option::is_none));
    assert_eq!(governed.rows_out, free.rows_out);

    let tight = run(Some(charged - 1));
    assert!(tight.query_errors[0].is_none());
    let err = tight.query_errors[1].as_ref().expect("second query aborts");
    assert_eq!(err.kind, MqoErrorKind::MemBudgetExceeded);
}
