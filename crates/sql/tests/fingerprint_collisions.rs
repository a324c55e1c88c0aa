//! Collision-freedom of the cross-batch fingerprint over a fuzzed SQL
//! corpus.
//!
//! A fingerprint collision between *different* logical results would let
//! a warm `MqoSession` serve a cached table as the answer to the wrong
//! query, so this is the one fingerprint property that must hold
//! corpus-wide, not just pairwise. `MQO_FUZZ_CASES` overrides the corpus
//! size (default 500, matching the other fuzz suites).
//!
//! Two generated statements may legitimately share a fingerprint when
//! they denote the same result (join commutation, identical text), so
//! the oracle compares *order-insensitive semantic keys*: the multiset
//! of scanned tables, the multiset of predicate atoms, and the
//! root-level aggregate/projection shape — all invariant under the
//! DAG's rule closure. Equal fingerprints with different keys are a
//! genuine collision.

use mqo_dag::{try_group_fingerprints, Dag, DagConfig};
use mqo_logical::LogicalPlan;
use mqo_sql::{to_batch, QueryGen, SqlPlanner};
use mqo_workloads::Tpcd;
use std::collections::HashMap;

fn fuzz_cases() -> usize {
    std::env::var("MQO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

/// An order-insensitive summary of what a plan computes: invariant under
/// join commutation/association and predicate placement, but separating
/// any two plans that scan different tables, filter differently, or
/// aggregate/project differently.
fn semantic_key(plan: &LogicalPlan) -> String {
    fn walk(
        p: &LogicalPlan,
        tables: &mut Vec<String>,
        preds: &mut Vec<String>,
        shape: &mut Vec<String>,
    ) {
        match p {
            LogicalPlan::Scan(t) => tables.push(format!("{t:?}")),
            LogicalPlan::Select { pred, input } => {
                preds.push(format!("{pred:?}"));
                walk(input, tables, preds, shape);
            }
            LogicalPlan::Join { pred, left, right } => {
                preds.push(format!("{pred:?}"));
                walk(left, tables, preds, shape);
                walk(right, tables, preds, shape);
            }
            LogicalPlan::Aggregate { keys, aggs, input } => {
                // the DAG sorts + dedups keys and aggs at insertion, and
                // results are column-id addressed, so order is not identity
                let mut keys = keys.clone();
                keys.sort_unstable();
                keys.dedup();
                let mut aggs: Vec<String> = aggs.iter().map(|a| format!("{a:?}")).collect();
                aggs.sort_unstable();
                shape.push(format!("agg keys={keys:?} aggs={aggs:?}"));
                walk(input, tables, preds, shape);
            }
            LogicalPlan::Project { cols, input } => {
                // ditto: projection columns are a set, not a sequence
                let mut cols = cols.clone();
                cols.sort_unstable();
                cols.dedup();
                shape.push(format!("proj {cols:?}"));
                walk(input, tables, preds, shape);
            }
        }
    }
    let (mut tables, mut preds, mut shape) = (Vec::new(), Vec::new(), Vec::new());
    walk(plan, &mut tables, &mut preds, &mut shape);
    tables.sort_unstable();
    preds.sort_unstable();
    format!("tables={tables:?} preds={preds:?} shape={shape:?}")
}

#[test]
fn fuzzed_corpus_is_collision_free() {
    let cases = fuzz_cases();
    let w = Tpcd::new(0.0005);
    let mut catalog = w.catalog.clone();
    let mut gen = QueryGen::new(&w.catalog, 0xc0_11_1d_e5);
    let mut planner = SqlPlanner::new();

    // fingerprint → (semantic key, the SQL that minted it)
    let mut seen: HashMap<u64, (String, String)> = HashMap::new();
    for _ in 0..cases {
        let sql = format!("{};", gen.next_statement());
        let planned = planner
            .plan_text(&mut catalog, &sql)
            .unwrap_or_else(|e| panic!("generated SQL failed to plan:\n{sql}\n{}", e.render(&sql)));
        let batch = to_batch(&planned);
        let key = semantic_key(&batch.queries[0].plan);
        let dag = Dag::expand(&batch, &catalog, DagConfig::default());
        let fps = try_group_fingerprints(&dag).expect("expanded DAG fingerprints");
        let root = dag.op_inputs(dag.root_op())[0];
        let fp = fps[&root];
        match seen.get(&fp) {
            None => {
                seen.insert(fp, (key, sql));
            }
            Some((prior_key, prior_sql)) => assert_eq!(
                prior_key, &key,
                "fingerprint collision {fp:#018x} between:\n  {prior_sql}\n  {sql}"
            ),
        }
    }
    assert!(
        seen.len() > cases / 2,
        "corpus too degenerate to exercise collisions: {} distinct fingerprints from {cases} queries",
        seen.len()
    );
}
