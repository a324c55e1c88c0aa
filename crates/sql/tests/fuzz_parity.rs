//! Seeded SQL fuzzing against the execution parity oracle.
//!
//! Random-but-valid SELECT statements over the TPC-D catalog go through
//! the *full text pipeline* — print → lex → parse → analyze → plan —
//! and execute under the optimizer's shared plans. The row-at-a-time
//! path and the vectorized path (at both the degenerate and the default
//! batch size) must produce bit-identical `ExecOutcome`s on every
//! batch.
//!
//! `MQO_FUZZ_CASES` overrides the number of queries (default 500; CI's
//! matrix smoke runs use 100).

use mqo_core::{Optimizer, Options, VerifyLevel};
use mqo_exec::{execute_plan_with, generate_database, ExecMode, ExecOptions, ExecOutcome, Table};
use mqo_expr::Value;
use mqo_sql::{to_batch, QueryGen, SqlPlanner};
use mqo_util::FxHashMap;
use mqo_workloads::Tpcd;

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

fn fuzz_cases() -> usize {
    std::env::var("MQO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

#[test]
fn seeded_sql_queries_agree_across_exec_paths() {
    const BATCH: usize = 8;
    let cases = fuzz_cases();
    let w = Tpcd::new(0.0005);
    let db = generate_database(&w.catalog, 20_260, usize::MAX);
    let mut catalog = w.catalog.clone();
    let mut gen = QueryGen::new(&w.catalog, 0x5eed_f022);
    let mut planner = SqlPlanner::new();
    // Full verification on every fuzz case: each prepare and search below
    // checks the batch, DAG, physical DAG, cost table and extracted plan,
    // and panics with a rendered diagnostic on any invariant violation.
    let options = Options::new().with_verify(VerifyLevel::Full);
    let params = FxHashMap::default();

    let mut done = 0usize;
    let mut batch_no = 0usize;
    while done < cases {
        let n = BATCH.min(cases - done);
        // Print the generated ASTs to SQL text so every query exercises
        // the lexer and parser too, not just the analyzer and planner.
        let sql = (0..n)
            .map(|_| format!("{};", gen.next_statement()))
            .collect::<Vec<_>>()
            .join("\n");
        let planned = planner
            .plan_text(&mut catalog, &sql)
            .unwrap_or_else(|e| panic!("generated SQL failed to plan:\n{sql}\n{}", e.render(&sql)));
        let batch = to_batch(&planned);

        let optimizer = Optimizer::with_options(&catalog, options);
        let ctx = optimizer.prepare(&batch);
        let r = optimizer.search(&ctx, "Greedy").unwrap();
        let run = |mode| {
            let exec = ExecOptions {
                mode,
                ..ExecOptions::default()
            };
            execute_plan_with(&catalog, &ctx.pdag, &r.plan, &db, &params, exec)
        };
        assert_outcomes_identical(
            &run(ExecMode::Row),
            &run(ExecMode::Vectorized),
            &format!("fuzz batch {batch_no}:\n{sql}"),
        );
        done += n;
        batch_no += 1;
    }
    assert!(done >= cases, "ran {done} of {cases} fuzz queries");
}
