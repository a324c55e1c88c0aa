//! Property-based tests over randomly generated workloads: the system's
//! core invariants must hold for *every* chain-join batch, not just the
//! curated workloads.

use mqo::catalog::Catalog;
use mqo::core::{CostState, OptStats, Optimizer};
use mqo::dag::{sharable_groups, Dag, DagConfig};
use mqo::exec::{execute_plan, generate_database, normalize_result, results_approx_equal};
use mqo::expr::{Atom, CmpOp, Predicate};
use mqo::logical::{Batch, LogicalPlan, Query};
use mqo::physical::{CostTable, PhysicalDag};
use mqo::util::FxHashMap;
use proptest::prelude::*;

/// A randomly parameterized chain-join workload description.
#[derive(Debug, Clone)]
struct ChainWorkload {
    n_tables: usize,
    rows: Vec<u32>,
    // (lo, len, bound) per query
    queries: Vec<(usize, usize, i64)>,
}

fn chain_workload() -> impl Strategy<Value = ChainWorkload> {
    (3usize..6)
        .prop_flat_map(|n_tables| {
            (
                Just(n_tables),
                prop::collection::vec(200u32..2_000, n_tables),
                prop::collection::vec((0usize..n_tables, 2usize..n_tables, 0i64..90), 1..4),
            )
        })
        .prop_map(|(n_tables, rows, raw)| {
            let queries = raw
                .into_iter()
                .map(|(lo, len, bound)| {
                    let lo = lo.min(n_tables - 2);
                    let len = len.min(n_tables - lo);
                    (lo, len.max(2), bound)
                })
                .collect();
            ChainWorkload {
                n_tables,
                rows,
                queries,
            }
        })
}

fn build(w: &ChainWorkload) -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    for (i, &r) in w.rows.iter().enumerate() {
        let _ = cat
            .table(&format!("c{i}"))
            .rows(r as f64)
            .int_key("p")
            .int_uniform("sp", 0, (w.rows[(i + 1) % w.n_tables] as i64 - 1).max(0))
            .int_uniform("num", 0, 99)
            .clustered_on_first()
            .build();
    }
    let mut queries = Vec::new();
    for (qi, &(lo, len, bound)) in w.queries.iter().enumerate() {
        let hi = (lo + len - 1).min(w.n_tables - 1);
        let mut plan = LogicalPlan::scan(cat.table_by_name(&format!("c{lo}")).unwrap().id).select(
            Predicate::atom(Atom::cmp(
                cat.col(&format!("c{lo}"), "num"),
                CmpOp::Ge,
                bound,
            )),
        );
        for j in lo + 1..=hi {
            let pred = Predicate::atom(Atom::eq_cols(
                cat.col(&format!("c{}", j - 1), "sp"),
                cat.col(&format!("c{j}"), "p"),
            ));
            plan = plan.join(
                LogicalPlan::scan(cat.table_by_name(&format!("c{j}")).unwrap().id),
                pred,
            );
        }
        queries.push(Query::new(format!("q{qi}"), plan));
    }
    (cat, Batch::of(queries))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, ..ProptestConfig::default()
    })]

    /// Every heuristic's cost is bounded by Volcano's on any workload.
    #[test]
    fn heuristics_never_worse_than_volcano(w in chain_workload()) {
        let (cat, batch) = build(&w);
        let optimizer = Optimizer::new(&cat);
        let ctx = optimizer.prepare(&batch);
        let base = optimizer.search(&ctx, "Volcano").unwrap();
        prop_assert!(base.cost.is_finite());
        for name in ["Volcano-SH", "Volcano-RU", "Greedy"] {
            let r = optimizer.search(&ctx, name).unwrap();
            prop_assert!(
                r.cost <= base.cost * 1.0001,
                "{} {} > {}", name, r.cost, base.cost
            );
        }
    }

    /// The incremental cost update agrees with full recomputation after
    /// arbitrary add/remove sequences of sharable candidates.
    #[test]
    fn incremental_equals_full_recompute(w in chain_workload(), picks in prop::collection::vec(any::<u16>(), 1..12)) {
        let (cat, batch) = build(&w);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        let pdag = PhysicalDag::build(&dag, &cat, mqo::cost::CostParams::default());
        let mut cands = Vec::new();
        for (g, _) in sharable_groups(&dag) {
            cands.extend(pdag.variants(g).iter().copied());
        }
        if cands.is_empty() {
            return Ok(());
        }
        let mut state = CostState::new(&pdag);
        let mut stats = OptStats::default();
        for &p in &picks {
            let n = cands[p as usize % cands.len()];
            if state.mat.contains(n) {
                state.remove_mat(&pdag, n, &mut stats);
            } else {
                state.add_mat(&pdag, n, &mut stats);
            }
            let oracle = CostTable::compute(&pdag, &state.mat);
            for i in 0..pdag.num_nodes() {
                let (a, b) = (state.table.node_cost[i], oracle.node_cost[i]);
                prop_assert!(
                    (a.secs() - b.secs()).abs() < 1e-9 || (!a.is_finite() && !b.is_finite()),
                    "node {i}: {a} vs {b}"
                );
            }
        }
    }

    /// Executing the greedy (shared) plan returns the same rows as the
    /// Volcano (unshared) plan on random data.
    #[test]
    fn shared_execution_matches_unshared(w in chain_workload(), seed in any::<u32>()) {
        let (cat, batch) = build(&w);
        let db = generate_database(&cat, seed as u64, 600);
        let params = FxHashMap::default();

        let optimizer = Optimizer::new(&cat);
        let ctx = optimizer.prepare(&batch);
        let base = optimizer.search(&ctx, "Volcano").unwrap();
        let greedy = optimizer.search(&ctx, "Greedy").unwrap();
        let a = execute_plan(&cat, &ctx.pdag, &base.plan, &db, &params);
        let b = execute_plan(&cat, &ctx.pdag, &greedy.plan, &db, &params);
        prop_assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            prop_assert!(
                results_approx_equal(&normalize_result(x), &normalize_result(y), 1e-9)
            );
        }
    }

    /// DAG invariants: expansion terminates, numbering is topological,
    /// group properties are consistent, identical batches give identical
    /// DAG sizes (determinism).
    #[test]
    fn dag_structural_invariants(w in chain_workload()) {
        let (cat, batch) = build(&w);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        let dag2 = Dag::expand(&batch, &cat, DagConfig::default());
        prop_assert_eq!(dag.num_groups(), dag2.num_groups());
        prop_assert_eq!(dag.num_ops(), dag2.num_ops());
        for &g in dag.topo_order() {
            let gtopo = dag.group(g).topo;
            prop_assert!(dag.group_ops(g).count() > 0, "group without ops");
            for o in dag.group_ops(g) {
                for i in dag.op_inputs(o) {
                    prop_assert!(
                        dag.group(i).topo < gtopo,
                        "child not below parent in topo order"
                    );
                }
            }
            prop_assert!(dag.group(g).rows >= 1.0);
            prop_assert!(dag.group(g).width >= 1);
        }
    }

    /// Sharability: a group is sharable only if some plan can use it more
    /// than once; single-query batches over distinct relations share
    /// nothing, and degrees never go below 1 for reachable groups.
    #[test]
    fn sharability_bounds(w in chain_workload()) {
        let (cat, batch) = build(&w);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        let degrees = mqo::dag::degree_of_sharing(&dag);
        let nqueries = batch.len() as f64;
        for (&g, &d) in degrees.iter() {
            prop_assert!(d <= nqueries + 1e-9, "degree {d} exceeds query count");
            if g != dag.root() {
                prop_assert!(d >= 0.0);
            }
        }
    }
}
