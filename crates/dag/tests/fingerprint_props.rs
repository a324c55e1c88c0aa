//! Property tests for the cross-batch fingerprint scheme.
//!
//! The fingerprint is the cache key `mqo-session` trusts across batches,
//! so the two invariants the unit tests spot-check must hold for *every*
//! chain-join workload, not just curated examples:
//!
//! * **Join-child permutation stability** — swapping the operands of any
//!   subset of joins describes the same logical result and must produce
//!   the same root fingerprint.
//! * **Node-id relabeling insensitivity** — group ids are arena indices
//!   that depend on expansion order; submitting the same queries in a
//!   different batch order relabels every id but must not move any
//!   query's root fingerprint.

use mqo_catalog::Catalog;
use mqo_dag::{try_group_fingerprints, Dag, DagConfig, Fingerprint};
use mqo_expr::{Atom, CmpOp, Predicate};
use mqo_logical::{Batch, LogicalPlan, Query};
use proptest::prelude::*;

const N_TABLES: usize = 6;

fn chain_catalog(rows: &[u32]) -> Catalog {
    let mut cat = Catalog::new();
    for (i, &r) in rows.iter().enumerate() {
        let _ = cat
            .table(&format!("c{i}"))
            .rows(f64::from(r))
            .int_key("p")
            .int_uniform("sp", 0, (i64::from(rows[(i + 1) % rows.len()]) - 1).max(0))
            .int_uniform("num", 0, 99)
            .clustered_on_first()
            .build();
    }
    cat
}

/// Left-deep chain join of `c{lo}..=c{hi}`; `swaps[k]` flips the operand
/// order of the k-th join.
fn chain_plan(cat: &Catalog, lo: usize, hi: usize, swaps: &[bool]) -> LogicalPlan {
    let mut plan = LogicalPlan::scan(cat.table_by_name(&format!("c{lo}")).unwrap().id);
    for (k, j) in (lo + 1..=hi).enumerate() {
        let pred = Predicate::atom(Atom::eq_cols(
            cat.col(&format!("c{}", j - 1), "sp"),
            cat.col(&format!("c{j}"), "p"),
        ));
        let t = LogicalPlan::scan(cat.table_by_name(&format!("c{j}")).unwrap().id);
        plan = if swaps.get(k).copied().unwrap_or(false) {
            t.join(plan, pred)
        } else {
            plan.join(t, pred)
        };
    }
    plan
}

/// Root fingerprint of each query in `batch`, in batch order.
fn root_fps(cat: &Catalog, batch: &Batch) -> Vec<Fingerprint> {
    let dag = Dag::expand(batch, cat, DagConfig::default());
    let fps = try_group_fingerprints(&dag).expect("expanded DAG fingerprints");
    dag.op_inputs(dag.root_op())
        .iter()
        .map(|g| fps[g])
        .collect()
}

proptest! {
    #[test]
    fn join_child_permutation_does_not_change_fingerprint(
        hi in 2usize..N_TABLES,
        rows in prop::collection::vec(100u32..2_000, N_TABLES),
        swaps in prop::collection::vec(any::<bool>(), N_TABLES - 1),
    ) {
        let cat = chain_catalog(&rows);
        let base = chain_plan(&cat, 0, hi, &[]);
        let perm = chain_plan(&cat, 0, hi, &swaps);
        prop_assert_eq!(
            root_fps(&cat, &Batch::single("q", base)),
            root_fps(&cat, &Batch::single("q", perm)),
            "swapping join operands moved the root fingerprint"
        );
    }

    #[test]
    fn node_id_relabeling_is_invisible(
        rows in prop::collection::vec(200u32..2_000, N_TABLES),
        spans in prop::collection::vec((0usize..4, 2usize..5, 0i64..90), 2..5),
    ) {
        let cat = chain_catalog(&rows);
        let queries: Vec<Query> = spans
            .iter()
            .enumerate()
            .map(|(qi, &(lo, len, bound))| {
                let lo = lo.min(N_TABLES - 2);
                let hi = (lo + len.max(1)).min(N_TABLES - 1);
                let plan = chain_plan(&cat, lo, hi, &[]).select(Predicate::atom(Atom::cmp(
                    cat.col(&format!("c{lo}"), "num"),
                    CmpOp::Ge,
                    bound,
                )));
                Query::new(format!("q{qi}"), plan)
            })
            .collect();
        let forward = Batch::of(queries.clone());
        let reversed = Batch::of(queries.into_iter().rev().collect());
        // reversing the batch renumbers every group and op id, but each
        // query keeps its fingerprint
        let mut fwd = root_fps(&cat, &forward);
        fwd.reverse();
        prop_assert_eq!(
            fwd,
            root_fps(&cat, &reversed),
            "batch order (id numbering) leaked into the fingerprint"
        );
    }
}
