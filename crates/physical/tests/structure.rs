//! Structural invariants of the physical DAG builder: topological
//! numbering, enforcer coverage, interesting-order propagation, index
//! access paths and temp-dependence wiring.

use mqo_catalog::{Catalog, ColStats, ColType};
use mqo_cost::CostParams;
use mqo_dag::{Dag, DagConfig};
use mqo_expr::{AggExpr, AggFunc, Atom, CmpOp, ParamId, Predicate, ScalarExpr};
use mqo_logical::{Batch, LogicalPlan, Query};
use mqo_physical::{Algo, CostTable, MatSet, PhysProp, PhysicalDag};

fn setup() -> (Catalog, Dag, PhysicalDag) {
    let mut cat = Catalog::new();
    let a = cat
        .table("pa")
        .rows(40_000.0)
        .int_key("pak")
        .int_uniform("pav", 0, 199)
        .clustered_on_first()
        .build();
    let b = cat
        .table("pb")
        .rows(80_000.0)
        .int_key("pbk")
        .int_uniform("pafk", 0, 39_999)
        .clustered_on_first()
        .build();
    let tot = cat.derived_column("ptot", ColType::Float, ColStats::opaque(200.0));
    let pav = cat.col("pa", "pav");
    let pbk = cat.col("pb", "pbk");
    let join = Predicate::atom(Atom::eq_cols(cat.col("pa", "pak"), cat.col("pb", "pafk")));
    let q1 = LogicalPlan::scan(a)
        .join(LogicalPlan::scan(b), join.clone())
        .aggregate(
            vec![pav],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(pbk), tot)],
        );
    let q2 = LogicalPlan::scan(a)
        .join(LogicalPlan::scan(b), join)
        .select(Predicate::atom(Atom::cmp(pav, CmpOp::Lt, 20i64)));
    let batch = Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]);
    let dag = Dag::expand(&batch, &cat, DagConfig::default());
    let pdag = PhysicalDag::build(&dag, &cat, CostParams::default());
    (cat, dag, pdag)
}

#[test]
fn node_ids_are_topological() {
    let (_, _, pdag) = setup();
    for (i, node) in pdag.nodes().iter().enumerate() {
        assert_eq!(node.topo as usize, i);
        for &o in &node.ops {
            let op = pdag.op(o);
            for &child in &op.inputs {
                assert!(
                    pdag.node(child).topo < node.topo,
                    "op {} input {} not below its node {}",
                    op.algo.name(),
                    child,
                    i
                );
            }
        }
    }
}

#[test]
fn every_sorted_node_has_a_sort_enforcer() {
    let (_, _, pdag) = setup();
    for node in pdag.nodes() {
        if let PhysProp::Sorted(keys) = &node.prop {
            let has_enforcer = node
                .ops
                .iter()
                .any(|&o| matches!(&pdag.op(o).algo, Algo::Sort { keys: k } if k == keys));
            assert!(has_enforcer, "sorted node without enforcer: {}", node.prop);
        }
    }
}

#[test]
fn merge_join_inputs_require_matching_sort() {
    let (_, _, pdag) = setup();
    let mut found = false;
    for op in pdag.ops() {
        if let Algo::MergeJoin {
            left_keys,
            right_keys,
            ..
        } = &op.algo
        {
            found = true;
            assert_eq!(left_keys.len(), right_keys.len());
            let l = pdag.node(op.inputs[0]);
            let r = pdag.node(op.inputs[1]);
            assert!(
                PhysProp::Sorted(left_keys.clone()).satisfies(&l.prop)
                    || l.prop.satisfies(&PhysProp::Sorted(left_keys.clone()))
            );
            assert!(r.prop.satisfies(&PhysProp::Sorted(right_keys.clone())));
        }
    }
    assert!(found, "no merge join generated for an equi-join");
}

#[test]
fn indexed_select_exists_for_clustered_predicate() {
    // σ(pak < c) over table clustered on pak must offer IndexedSelect
    let mut cat = Catalog::new();
    let a = cat
        .table("t")
        .rows(10_000.0)
        .int_key("k")
        .clustered_on_first()
        .build();
    let q = LogicalPlan::scan(a).select(Predicate::atom(Atom::cmp(
        cat.col("t", "k"),
        CmpOp::Lt,
        100i64,
    )));
    let dag = Dag::expand(&Batch::single("q", q), &cat, DagConfig::default());
    let pdag = PhysicalDag::build(&dag, &cat, CostParams::default());
    let has = pdag
        .ops()
        .iter()
        .any(|o| matches!(o.algo, Algo::IndexedSelect { .. }));
    assert!(has);
    // and the indexed select must win over scan+filter for a selective pred
    let t = CostTable::compute(&pdag, &MatSet::new());
    let root_in = pdag.op(t.best_op[pdag.root().index()].unwrap()).inputs[0];
    let best = t.best_op[root_in.index()].unwrap();
    assert!(
        matches!(pdag.op(best).algo, Algo::IndexedSelect { .. }),
        "expected IndexedSelect, got {}",
        pdag.op(best).algo.name()
    );
}

#[test]
fn temp_dependent_ops_are_infeasible_without_their_temp() {
    let (_, _, pdag) = setup();
    let table = CostTable::compute(&pdag, &MatSet::new());
    let mut checked = 0;
    for (i, op) in pdag.ops().iter().enumerate() {
        if op.temp_dep.is_some() {
            checked += 1;
            assert!(
                !table.op_cost[i].is_finite(),
                "temp-dependent op {} costed finite without materialization",
                op.algo.name()
            );
        }
    }
    assert!(checked > 0, "expected temp-dependent ops in the DAG");
}

#[test]
fn temp_dependent_ops_become_feasible_with_sorted_temp() {
    let (_, dag, pdag) = setup();
    // find a temp-dependent op and materialize its source sorted on key
    let (op_idx, td) = pdag
        .ops()
        .iter()
        .enumerate()
        .find_map(|(i, o)| o.temp_dep.map(|td| (i, td)))
        .expect("temp-dep op");
    let sorted_variant = pdag
        .variants(td.source)
        .iter()
        .copied()
        .find(|&n| pdag.node(n).prop.leading_col() == Some(td.key))
        .expect("sorted variant exists");
    let mut mat = MatSet::new();
    mat.insert(&pdag, sorted_variant);
    let table = CostTable::compute(&pdag, &mat);
    assert!(
        table.op_cost[op_idx].is_finite(),
        "temp-dependent op still infeasible with its temp materialized"
    );
    let _ = dag;
}

#[test]
fn param_select_creates_probe_paths() {
    // a correlated (Param) selection must generate a TempIndexedSelect so
    // greedy can turn the invariant into a probe-able temp (paper §5)
    let mut cat = Catalog::new();
    let a = cat
        .table("base")
        .rows(50_000.0)
        .int_key("bk")
        .int_uniform("bv", 0, 999)
        .build();
    let q = LogicalPlan::scan(a).select(Predicate::atom(Atom::Param {
        col: cat.col("base", "bk"),
        op: CmpOp::Eq,
        param: ParamId(0),
    }));
    let batch = Batch::of(vec![Query::invoked("inner", q, 100.0)]);
    let dag = Dag::expand(&batch, &cat, DagConfig::default());
    let pdag = PhysicalDag::build(&dag, &cat, CostParams::default());
    assert!(pdag
        .ops()
        .iter()
        .any(|o| matches!(o.algo, Algo::TempIndexedSelect { .. })));
}

#[test]
fn variants_share_group_statistics() {
    let (_, _, pdag) = setup();
    for node in pdag.nodes() {
        for &v in pdag.variants(node.group) {
            assert_eq!(pdag.node(v).rows, node.rows);
            assert_eq!(pdag.node(v).blocks, node.blocks);
        }
    }
}

#[test]
fn matcost_and_reusecost_scale_with_blocks() {
    let (_, _, pdag) = setup();
    let mut nodes: Vec<_> = pdag.nodes().iter().enumerate().collect();
    nodes.sort_by(|a, b| a.1.blocks.total_cmp(&b.1.blocks));
    let small = mqo_physical::PhysNodeId::from_index(nodes.first().unwrap().0);
    let big = mqo_physical::PhysNodeId::from_index(nodes.last().unwrap().0);
    assert!(pdag.matcost(big) >= pdag.matcost(small));
    assert!(pdag.reusecost(big) >= pdag.reusecost(small));
    // write costs more than read-back per the paper's parameters
    assert!(pdag.matcost(big) > pdag.reusecost(big) * 0.9);
}

/// A plan slice keeps every node (by id) and exactly the ops the plan
/// computes, in ascending node order, with the plan's choices pointing
/// at the renumbered copies.
#[test]
fn plan_slice_keeps_the_computed_ops_only() {
    let (_, dag, pdag) = setup();
    let shared = dag.op_inputs(dag.root_op())[0];
    let mut mat = MatSet::new();
    mat.insert(&pdag, pdag.node_for(shared, &PhysProp::Any).unwrap());
    let table = CostTable::compute(&pdag, &mat);
    let plan = mqo_physical::ExtractedPlan::extract(&pdag, &table, &mat);
    let (slice, sliced) = pdag.plan_slice(&plan);

    assert_eq!(slice.num_nodes(), pdag.num_nodes());
    assert_eq!(slice.root(), pdag.root());
    for (full, kept) in pdag.nodes().iter().zip(slice.nodes()) {
        assert_eq!(
            (kept.group, &kept.prop, kept.topo),
            (full.group, &full.prop, full.topo)
        );
        assert_eq!(kept.rows.to_bits(), full.rows.to_bits());
        assert_eq!(kept.blocks.to_bits(), full.blocks.to_bits());
        assert!(kept.ops.is_empty() && kept.parents.is_empty());
    }
    let computed = |p: &mqo_physical::ExtractedPlan| {
        let mut v: Vec<_> = (0..pdag.num_nodes())
            .map(mqo_physical::PhysNodeId::from_index)
            .filter_map(|n| match p.choices.get(&n) {
                Some(&mqo_physical::ChosenOp::Compute(o)) => Some((n, o)),
                _ => None,
            })
            .collect();
        v.sort();
        v
    };
    let before = computed(&plan);
    let after = computed(&sliced);
    assert_eq!(slice.num_ops(), before.len());
    assert!(slice.num_ops() < pdag.num_ops());
    for (i, (&(n, old), &(m, new))) in before.iter().zip(&after).enumerate() {
        assert_eq!(n, m);
        assert_eq!(new.index(), i, "ops renumbered in ascending node order");
        let (a, b) = (pdag.op(old), slice.op(new));
        assert_eq!(
            (a.algo.name(), a.node, &a.inputs),
            (b.algo.name(), b.node, &b.inputs)
        );
    }
    assert_eq!(sliced.choices.len(), plan.choices.len());
    assert_eq!(sliced.query_roots, plan.query_roots);
    assert_eq!(sliced.materialized, plan.materialized);
    assert_eq!(sliced.warm_used, plan.warm_used);
    assert_eq!(sliced.total_cost, plan.total_cost);
}
