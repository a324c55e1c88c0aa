//! Engine-path parity on the paper's workloads: the legacy
//! row-at-a-time path and the batched columnar path must produce
//! bit-identical [`ExecOutcome`]s (results with strict per-variant value
//! equality and identical row order, `temps_built`, `rows_out`) on the
//! fig6–fig10 workloads, for both the unshared Volcano plan and the
//! shared Greedy plan, at the default and the degenerate batch size.

use mqo_core::{Optimizer, Options, VerifyLevel};
use mqo_exec::{execute_plan_with, generate_database, ExecMode, ExecOptions, ExecOutcome, Table};
use mqo_expr::Value;
use mqo_util::FxHashMap;
use mqo_workloads::{Scaleup, Tpcd};

fn strict_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

fn tables_identical(a: &Table, b: &Table) -> bool {
    a.schema == b.schema
        && a.sorted_on == b.sorted_on
        && a.len() == b.len()
        && (0..a.len()).all(|i| {
            let (ra, rb) = (a.row(i), b.row(i));
            ra.iter().zip(&rb).all(|(x, y)| strict_eq(x, y))
        })
}

fn assert_outcomes_identical(row: &ExecOutcome, vec: &ExecOutcome, label: &str) {
    assert_eq!(row.temps_built, vec.temps_built, "{label}: temps_built");
    assert_eq!(row.rows_out, vec.rows_out, "{label}: rows_out");
    assert_eq!(row.results.len(), vec.results.len(), "{label}: arity");
    for (qi, (a, b)) in row.results.iter().zip(&vec.results).enumerate() {
        assert!(
            tables_identical(a, b),
            "{label}: query {qi} diverged between row and vectorized paths"
        );
    }
}

fn run_parity(batch: &mqo_logical::Batch, catalog: &mqo_catalog::Catalog, seed: u64, label: &str) {
    // every stage verifies its IRs at Full and panics on violation
    let optimizer = Optimizer::with_options(catalog, Options::new().with_verify(VerifyLevel::Full));
    let ctx = optimizer.prepare(batch);
    let db = generate_database(catalog, seed, usize::MAX);
    let params = FxHashMap::default();
    for name in ["Volcano", "Greedy"] {
        let r = optimizer.search(&ctx, name).unwrap();
        let run = |mode| {
            let exec = ExecOptions {
                mode,
                ..ExecOptions::default()
            };
            execute_plan_with(catalog, &ctx.pdag, &r.plan, &db, &params, exec)
        };
        let (row, vec) = (run(ExecMode::Row), run(ExecMode::Vectorized));
        assert_outcomes_identical(&row, &vec, &format!("{label}/{name}"));
    }
}

#[test]
fn q2d_paths_agree() {
    let w = Tpcd::new(0.002);
    run_parity(&w.q2d(), &w.catalog, 20_260, "Q2-D");
}

#[test]
fn q11_paths_agree() {
    let w = Tpcd::new(0.002);
    run_parity(&w.q11(), &w.catalog, 20_260, "Q11");
}

#[test]
fn q15_paths_agree() {
    let w = Tpcd::new(0.002);
    run_parity(&w.q15(), &w.catalog, 20_260, "Q15");
}

#[test]
fn bq2_paths_agree() {
    let w = Tpcd::new(0.002);
    run_parity(&w.bq(2), &w.catalog, 20_260, "BQ2");
}

#[test]
fn scaleup_cq2_paths_agree() {
    // fig9/fig10's scale-up chains execute on generated data too; cap
    // implied by the catalog's own (small) cardinalities
    let w = Scaleup::new(7);
    run_parity(&w.cq(2), &w.catalog, 11, "CQ2");
}

/// Executing a plan over its [`PhysicalDag::plan_slice`] — what a
/// session stores for plan reuse — is executing it over the full DAG:
/// bit-identical outcomes for every strategy's plan of the fig6–fig10
/// batches and the serving stream, on both engines.
///
/// [`PhysicalDag::plan_slice`]: mqo_physical::PhysicalDag::plan_slice
#[test]
fn plan_slices_execute_like_the_full_dag() {
    let tpcd = Tpcd::new(0.002);
    let scaleup = Scaleup::new(7);
    let mut inputs: Vec<(String, &mqo_catalog::Catalog, mqo_logical::Batch)> = Vec::new();
    for (name, batch) in tpcd.standalone() {
        inputs.push((name.to_string(), &tpcd.catalog, batch));
    }
    for i in 1..=5 {
        inputs.push((format!("BQ{i}"), &tpcd.catalog, tpcd.bq(i)));
        inputs.push((format!("CQ{i}"), &scaleup.catalog, scaleup.cq(i)));
    }
    for (i, batch) in tpcd.serving_batches(5).into_iter().enumerate() {
        inputs.push((format!("serving{i}"), &tpcd.catalog, batch));
    }
    // The plans are planned at full statistics; capped tables keep the
    // 168 executions per engine quick.
    let tpcd_db = generate_database(&tpcd.catalog, 20_260, 500);
    let scaleup_db = generate_database(&scaleup.catalog, 11, 500);
    let mut params = FxHashMap::default();
    params.insert(mqo_expr::ParamId(0), Value::Int(1));
    for (name, catalog, batch) in &inputs {
        let db = if name.starts_with("CQ") {
            &scaleup_db
        } else {
            &tpcd_db
        };
        let optimizer = Optimizer::new(catalog);
        let ctx = optimizer.prepare(batch);
        for alg in ["Volcano", "Volcano-SH", "Volcano-RU", "Greedy"] {
            let plan = optimizer.search(&ctx, alg).unwrap().plan;
            let (slice, sliced) = ctx.pdag.plan_slice(&plan);
            for mode in [ExecMode::Row, ExecMode::Vectorized] {
                let exec = ExecOptions {
                    mode,
                    ..ExecOptions::default()
                };
                let full = execute_plan_with(catalog, &ctx.pdag, &plan, db, &params, exec);
                let cut = execute_plan_with(catalog, &slice, &sliced, db, &params, exec);
                assert_outcomes_identical(&full, &cut, &format!("{name}/{alg} {mode:?} (slice)"));
            }
        }
    }
}
