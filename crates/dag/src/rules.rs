//! Transformation rules: join commutativity, join associativity and select
//! push-down, run to a fix point with duplicate-derivation avoidance in the
//! style of [PGLK97].
//!
//! All three rules insert alternatives through the memo's hash index, so a
//! re-derived expression costs one lookup and, when the same expression was
//! reached from a different group, triggers **unification** of the two
//! groups — exactly the mechanism the paper uses to detect common
//! subexpressions syntactically hidden by different join orders.

use crate::build::lazy_props;
use crate::memo::{Dag, GroupId, OpId, OpKind};
use mqo_catalog::ColId;
use mqo_cost::Estimator;
use mqo_expr::{Atom, Conjunct, Predicate};
use mqo_util::FxHashSet;

/// Applies all rules until no new operations or merges occur.
pub(crate) fn apply_all(dag: &mut Dag, est: &Estimator<'_>) {
    let mut commuted: FxHashSet<OpId> = FxHashSet::default();
    let mut assoc_pairs: FxHashSet<(OpId, OpId)> = FxHashSet::default();
    let mut push_pairs: FxHashSet<(OpId, OpId)> = FxHashSet::default();
    let mut project_pairs: FxHashSet<(OpId, OpId)> = FxHashSet::default();
    loop {
        let version_before = dag.version;
        let mut idx = 0;
        while idx < dag.ops_allocated() {
            let oid = OpId::from_index(idx);
            idx += 1;
            if !dag.op(oid).alive {
                continue;
            }
            if matches!(dag.op(oid).kind, OpKind::Join(_)) {
                commute(dag, oid, &mut commuted);
                associate(dag, est, oid, &mut assoc_pairs);
            } else if matches!(dag.op(oid).kind, OpKind::Select(_)) {
                push_down(dag, est, oid, &mut push_pairs);
                push_through_project(dag, est, oid, &mut project_pairs);
            }
            if dag.ops_allocated() > dag.config.max_ops {
                return; // safety valve: leave the DAG partially expanded
            }
        }
        if dag.version == version_before {
            return;
        }
    }
}

/// The predicate of a join or select op.
fn pred_of(dag: &Dag, o: OpId) -> Option<&Predicate> {
    match &dag.op(o).kind {
        OpKind::Join(p) | OpKind::Select(p) => Some(p),
        _ => None,
    }
}

/// The alive join ops of group `g`.
fn child_joins(dag: &Dag, g: GroupId) -> Vec<OpId> {
    dag.group_ops(g)
        .filter(|&o| matches!(dag.op(o).kind, OpKind::Join(_)))
        .collect()
}

/// Join commutativity: `J(l, r) → J(r, l)`. Applied once per op; the
/// derived twin is flagged so it is never commuted back ([PGLK97]).
fn commute(dag: &mut Dag, oid: OpId, commuted: &mut FxHashSet<OpId>) {
    if dag.op(oid).from_commutativity || !commuted.insert(oid) {
        return;
    }
    let Some(pred) = pred_of(dag, oid) else {
        return;
    };
    let kind = OpKind::Join(pred.clone());
    let ins = dag.op_inputs(oid);
    let group = dag.op_group(oid);
    dag.insert_op(kind, vec![ins[1], ins[0]], Some(group), false, true);
}

/// Join associativity: `(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)`, with the predicate
/// conjuncts re-distributed between the new joins by column coverage.
/// Together with commutativity this reaches every bushy join order.
fn associate(dag: &mut Dag, est: &Estimator<'_>, oid: OpId, done: &mut FxHashSet<(OpId, OpId)>) {
    let [outer_l, c] = dag.op_inputs(oid)[..] else {
        return;
    };
    // join predicates must be pure conjunctions to re-distribute
    if pred_of(dag, oid).and_then(single_conjunct).is_none() {
        return;
    }
    let group = dag.op_group(oid);
    for child in child_joins(dag, outer_l) {
        if !done.insert((oid, child)) {
            continue;
        }
        let [a, b] = dag.op_inputs(child)[..] else {
            continue;
        };
        let (Some(outer_conj), Some(child_conj)) = (
            pred_of(dag, oid).and_then(single_conjunct),
            pred_of(dag, child).and_then(single_conjunct),
        ) else {
            continue;
        };
        let (cols_a, cols_b, cols_c) = (
            &dag.group(a).cols[..],
            &dag.group(b).cols[..],
            &dag.group(c).cols[..],
        );
        let in_bc = |col: ColId| has(cols_b, col) || has(cols_c, col);
        // the pool of conjuncts to re-distribute
        let (inner_atoms, outer_atoms): (Vec<Atom>, Vec<Atom>) = outer_conj
            .atoms()
            .iter()
            .chain(child_conj.atoms())
            .cloned()
            .partition(|at| atom_cols(at).all(in_bc));
        if !dag.config.allow_cross_products {
            // inner join must connect B and C; outer must connect A to BC
            let inner_connected = inner_atoms.iter().any(|at| {
                atom_cols(at).any(|col| has(cols_b, col))
                    && atom_cols(at).any(|col| has(cols_c, col))
            });
            let outer_connected = outer_atoms
                .iter()
                .any(|at| atom_cols(at).any(|col| has(cols_a, col)) && atom_cols(at).any(in_bc));
            if !inner_connected || !outer_connected {
                continue;
            }
        }
        let inner_kind = OpKind::Join(Predicate::all(inner_atoms));
        let (bc, _, _) = dag.insert_expr(inner_kind, vec![b, c], lazy_props(est), false, false);
        dag.insert_op(
            OpKind::Join(Predicate::all(outer_atoms)),
            vec![a, bc],
            Some(group),
            false,
            false,
        );
    }
}

/// Select push-down: `σ_p(A ⋈ B) → σ_rest(σ_pA(A) ⋈ σ_pB(B))`, moving each
/// conjunct to the lowest side that covers its columns.
fn push_down(dag: &mut Dag, est: &Estimator<'_>, oid: OpId, done: &mut FxHashSet<(OpId, OpId)>) {
    let [input] = dag.op_inputs(oid)[..] else {
        return;
    };
    if pred_of(dag, oid).and_then(single_conjunct).is_none() {
        return;
    }
    let group = dag.op_group(oid);
    for child in child_joins(dag, input) {
        if !done.insert((oid, child)) {
            continue;
        }
        let [l, r] = dag.op_inputs(child)[..] else {
            continue;
        };
        let (Some(conj), Some(join_pred)) = (
            pred_of(dag, oid).and_then(single_conjunct),
            pred_of(dag, child),
        ) else {
            continue;
        };
        let (cols_l, cols_r) = (&dag.group(l).cols[..], &dag.group(r).cols[..]);
        let mut pl = Vec::new();
        let mut pr = Vec::new();
        let mut rest = Vec::new();
        for at in conj.atoms() {
            if atom_cols(at).all(|col| has(cols_l, col)) {
                pl.push(at.clone());
            } else if atom_cols(at).all(|col| has(cols_r, col)) {
                pr.push(at.clone());
            } else {
                rest.push(at.clone());
            }
        }
        if pl.is_empty() && pr.is_empty() {
            continue; // nothing pushes
        }
        let join_pred = join_pred.clone();
        let side = |side_group: GroupId, atoms: Vec<Atom>, dag: &mut Dag| -> GroupId {
            if atoms.is_empty() {
                return side_group;
            }
            let kind = OpKind::Select(Predicate::all(atoms));
            let (g, _, _) = dag.insert_expr(kind, vec![side_group], lazy_props(est), false, false);
            g
        };
        let l2 = side(l, pl, dag);
        let r2 = side(r, pr, dag);
        if rest.is_empty() {
            dag.insert_op(
                OpKind::Join(join_pred),
                vec![l2, r2],
                Some(group),
                false,
                false,
            );
        } else {
            let jk = OpKind::Join(join_pred);
            let (j, _, _) = dag.insert_expr(jk, vec![l2, r2], lazy_props(est), false, false);
            dag.insert_op(
                OpKind::Select(Predicate::all(rest)),
                vec![j],
                Some(group),
                false,
                false,
            );
        }
    }
}

/// Select/project commutation: `σ_p(Π_cols(E)) → Π_cols(σ_p(E))` — legal
/// whenever the plan was well-formed (`p` only references projected
/// columns). This lets selections travel through projection boundaries on
/// their way to index access paths.
fn push_through_project(
    dag: &mut Dag,
    est: &Estimator<'_>,
    oid: OpId,
    done: &mut FxHashSet<(OpId, OpId)>,
) {
    let [input] = dag.op_inputs(oid)[..] else {
        return;
    };
    let child_projects: Vec<OpId> = dag
        .group_ops(input)
        .filter(|&o| matches!(dag.op(o).kind, OpKind::Project(_)))
        .collect();
    let group = dag.op_group(oid);
    for child in child_projects {
        if !done.insert((oid, child)) {
            continue;
        }
        let [e] = dag.op_inputs(child)[..] else {
            continue;
        };
        let (Some(pred), OpKind::Project(cols)) = (pred_of(dag, oid), &dag.op(child).kind) else {
            continue;
        };
        let (sel_kind, project_kind) =
            (OpKind::Select(pred.clone()), OpKind::Project(cols.clone()));
        let (sel_g, _, _) = dag.insert_expr(sel_kind, vec![e], lazy_props(est), false, false);
        dag.insert_op(project_kind, vec![sel_g], Some(group), false, false);
    }
}

fn single_conjunct(p: &Predicate) -> Option<&Conjunct> {
    match p.disjuncts() {
        [c] => Some(c),
        _ => None,
    }
}

/// Membership in a group's column set (sorted, see [`crate::Group::cols`]).
fn has(cols: &[ColId], col: ColId) -> bool {
    cols.binary_search(&col).is_ok()
}

/// The columns an atom references: one for a comparison with a constant
/// or a parameter, two for a comparison between columns.
fn atom_cols(a: &Atom) -> impl Iterator<Item = ColId> {
    let (first, second) = match *a {
        Atom::Cmp { col, .. } | Atom::Param { col, .. } => (col, None),
        Atom::ColCmp { left, right, .. } => (left, Some(right)),
    };
    std::iter::once(first).chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagConfig;
    use mqo_catalog::Catalog;
    use mqo_expr::CmpOp;
    use mqo_logical::{Batch, LogicalPlan, Query};

    fn chain_catalog(n: usize, rows: f64) -> Catalog {
        let mut cat = Catalog::new();
        for i in 0..n {
            let _ = cat
                .table(&format!("t{i}"))
                .rows(rows)
                .int_key("p")
                .int_uniform("sp", 0, rows as i64 - 1)
                .build();
        }
        cat
    }

    fn chain_query(cat: &Catalog, lo: usize, hi: usize) -> LogicalPlan {
        // t_lo ⋈ t_{lo+1} ⋈ ... ⋈ t_hi on t_i.sp = t_{i+1}.p
        let mut plan = LogicalPlan::scan(cat.table_by_name(&format!("t{lo}")).unwrap().id);
        for i in lo + 1..=hi {
            let pred = Predicate::atom(Atom::eq_cols(
                cat.col(&format!("t{}", i - 1), "sp"),
                cat.col(&format!("t{i}"), "p"),
            ));
            plan = plan.join(
                LogicalPlan::scan(cat.table_by_name(&format!("t{i}")).unwrap().id),
                pred,
            );
        }
        plan
    }

    #[test]
    fn chain_expansion_has_one_group_per_connected_subchain() {
        // 4-relation chain: connected subchains = 4+3+2+1 = 10 groups,
        // plus root = 11.
        let cat = chain_catalog(4, 100.0);
        let q = chain_query(&cat, 0, 3);
        let dag = Dag::expand(&Batch::single("q", q), &cat, DagConfig::default());
        assert_eq!(dag.num_groups(), 11, "\n{}", dag.dump());
    }

    #[test]
    fn overlapping_chain_queries_share_subchains() {
        // q1 over t0..t2, q2 over t1..t3: share the {t1,t2} group.
        let cat = chain_catalog(4, 100.0);
        let q1 = chain_query(&cat, 0, 2);
        let q2 = chain_query(&cat, 1, 3);
        let dag = Dag::expand(
            &Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
            &cat,
            DagConfig::default(),
        );
        // groups: 4 scans, subchains {01},{12},{23},{012},{123}, root = 10
        assert_eq!(dag.num_groups(), 10, "\n{}", dag.dump());
    }

    #[test]
    fn select_pushdown_creates_selected_leaf_alternatives() {
        let cat = chain_catalog(2, 100.0);
        let pred = Predicate::atom(Atom::cmp(cat.col("t0", "p"), CmpOp::Lt, 50i64));
        let join = chain_query(&cat, 0, 1);
        let q = join.select(pred);
        let dag = Dag::expand(&Batch::single("q", q), &cat, DagConfig::default());
        // Expect a group for σ(t0): one of the ops in the σ(join) group
        // should be a Join with a selected left input.
        let sel_scan = dag.topo_order().iter().any(|&g| {
            dag.group_ops(g).any(|o| {
                matches!(dag.op(o).kind, OpKind::Select(_))
                    && dag.op_inputs(o).iter().all(|&i| {
                        dag.group_ops(i)
                            .any(|oo| matches!(dag.op(oo).kind, OpKind::Scan(_)))
                    })
            })
        });
        assert!(
            sel_scan,
            "pushdown did not create σ over scan\n{}",
            dag.dump()
        );
    }

    #[test]
    fn five_relation_chain_group_count() {
        // 5-chain: 5+4+3+2+1 = 15 subchains + root = 16 groups
        let cat = chain_catalog(5, 100.0);
        let q = chain_query(&cat, 0, 4);
        let dag = Dag::expand(&Batch::single("q", q), &cat, DagConfig::default());
        assert_eq!(dag.num_groups(), 16, "\n{}", dag.dump());
    }

    #[test]
    fn expansion_is_idempotent_wrt_group_count() {
        let cat = chain_catalog(3, 100.0);
        let q = chain_query(&cat, 0, 2);
        let d1 = Dag::expand(&Batch::single("q", q.clone()), &cat, DagConfig::default());
        let d2 = Dag::expand(&Batch::single("q", q), &cat, DagConfig::default());
        assert_eq!(d1.num_groups(), d2.num_groups());
        assert_eq!(d1.num_ops(), d2.num_ops());
    }
}
