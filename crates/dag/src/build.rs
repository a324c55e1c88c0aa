//! Building the initial DAG from logical plan trees and expanding it.

use crate::memo::{Dag, GroupId, GroupProps, OpKind};
use crate::{rules, subsumption, DagConfig};
use mqo_catalog::Catalog;
use mqo_cost::Estimator;
use mqo_logical::{Batch, LogicalPlan};
use mqo_util::BitSet;

impl Dag {
    /// Builds the **expanded DAG** for a batch: inserts every query tree,
    /// installs the pseudo-root, runs the transformation rules to a fix
    /// point, adds subsumption derivations, and assigns topological
    /// numbers.
    #[must_use]
    pub fn expand(batch: &Batch, catalog: &Catalog, config: DagConfig) -> Dag {
        let mut dag = Dag::empty(config);
        let est = Estimator::new(catalog);
        let mut roots = Vec::with_capacity(batch.len());
        let mut weights = Vec::with_capacity(batch.len());
        for q in &batch.queries {
            roots.push(insert_plan(&mut dag, &est, &q.plan));
            weights.push(q.weight);
        }
        dag.set_root(roots, weights);
        rules::apply_all(&mut dag, &est);
        if config.enable_subsumption {
            subsumption::add_derivations(&mut dag, &est);
        }
        dag.renumber();
        dag
    }

    /// Builds the *initial* (unexpanded) DAG — used by tests comparing
    /// pre/post expansion shapes.
    #[must_use]
    pub fn initial(batch: &Batch, catalog: &Catalog, config: DagConfig) -> Dag {
        let mut dag = Dag::empty(config);
        let est = Estimator::new(catalog);
        let mut roots = Vec::with_capacity(batch.len());
        let mut weights = Vec::with_capacity(batch.len());
        for q in &batch.queries {
            roots.push(insert_plan(&mut dag, &est, &q.plan));
            weights.push(q.weight);
        }
        dag.set_root(roots, weights);
        dag.renumber();
        dag
    }
}

/// Computes the logical properties of `kind(inputs)`. Shared by the
/// builder, the transformation rules and the subsumption pass so every
/// group gets a consistent estimate regardless of which derivation created
/// it first.
pub(crate) fn compute_props(
    dag: &Dag,
    est: &Estimator<'_>,
    kind: &OpKind,
    inputs: &[GroupId],
) -> GroupProps {
    let in_groups: Vec<&crate::memo::Group> = inputs.iter().map(|&g| dag.group(g)).collect();
    let in_param = in_groups.iter().any(|g| g.has_param);
    let relset = in_groups
        .iter()
        .fold(BitSet::new(), |acc, g| acc.union(&g.relset));
    match kind {
        OpKind::Scan(t) => {
            let cols = est.catalog().table_ref(*t).columns.clone();
            let width = est.row_width(&cols);
            GroupProps {
                rows: est.scan_rows(*t),
                cols,
                width,
                has_param: false,
                relset: BitSet::singleton(t.index()),
            }
        }
        OpKind::Select(p) => {
            let input = in_groups[0];
            GroupProps {
                rows: est.select_rows(input.rows, p),
                cols: input.cols.clone(),
                width: input.width,
                has_param: in_param || p.has_param(),
                relset,
            }
        }
        OpKind::Join(p) => {
            let (l, r) = (in_groups[0], in_groups[1]);
            let mut cols = l.cols.clone();
            cols.extend(r.cols.iter().copied());
            let width = est.row_width(&cols);
            GroupProps {
                rows: est.join_rows(l.rows, r.rows, p),
                cols,
                width,
                has_param: in_param || p.has_param(),
                relset,
            }
        }
        OpKind::Aggregate { keys, aggs } => {
            let input = in_groups[0];
            let mut cols = keys.clone();
            cols.extend(aggs.iter().map(|a| a.output));
            let width = est.row_width(&cols);
            GroupProps {
                rows: est.aggregate_rows(input.rows, keys),
                cols,
                width,
                has_param: in_param,
                relset,
            }
        }
        OpKind::Project(cols) => {
            let input = in_groups[0];
            GroupProps {
                rows: input.rows,
                cols: cols.clone(),
                width: est.row_width(cols),
                has_param: in_param,
                relset,
            }
        }
        OpKind::Root => GroupProps {
            rows: 1.0,
            cols: vec![],
            width: 1,
            has_param: false,
            relset,
        },
    }
}

/// [`compute_props`] as the `props` argument of [`Dag::insert_expr`], which
/// runs it only when the expression is new.
pub(crate) fn lazy_props<'e>(
    est: &'e Estimator<'_>,
) -> impl FnOnce(&Dag, &OpKind, &[GroupId]) -> GroupProps + 'e {
    move |dag, kind, inputs| compute_props(dag, est, kind, inputs)
}

/// Inserts a logical plan tree bottom-up; returns its root group.
fn insert_plan(dag: &mut Dag, est: &Estimator<'_>, plan: &LogicalPlan) -> GroupId {
    let (kind, inputs) = match plan {
        LogicalPlan::Scan(t) => (OpKind::Scan(*t), vec![]),
        LogicalPlan::Select { pred, input } => {
            let g = insert_plan(dag, est, input);
            (OpKind::Select(pred.clone()), vec![g])
        }
        LogicalPlan::Join { pred, left, right } => {
            let l = insert_plan(dag, est, left);
            let r = insert_plan(dag, est, right);
            (OpKind::Join(pred.clone()), vec![l, r])
        }
        LogicalPlan::Aggregate { keys, aggs, input } => {
            let g = insert_plan(dag, est, input);
            let mut keys = keys.clone();
            keys.sort_unstable();
            keys.dedup();
            let mut aggs = aggs.clone();
            aggs.sort_by_key(|a| a.output);
            (OpKind::Aggregate { keys, aggs }, vec![g])
        }
        LogicalPlan::Project { cols, input } => {
            let g = insert_plan(dag, est, input);
            let mut cols = cols.clone();
            cols.sort_unstable();
            cols.dedup();
            (OpKind::Project(cols), vec![g])
        }
    };
    let (g, _, _) = dag.insert_expr(kind, inputs, lazy_props(est), false, false);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_expr::{Atom, Predicate};
    use mqo_logical::Query;

    fn setup() -> (Catalog, LogicalPlan, LogicalPlan) {
        let mut cat = Catalog::new();
        let a = cat.table("a").rows(1000.0).int_key("ak").build();
        let b = cat
            .table("b")
            .rows(2000.0)
            .int_key("bk")
            .int_uniform("afk", 0, 999)
            .build();
        let c = cat
            .table("c")
            .rows(500.0)
            .int_key("ck")
            .int_uniform("bfk", 0, 1999)
            .build();
        let jab = Predicate::atom(Atom::eq_cols(cat.col("a", "ak"), cat.col("b", "afk")));
        let jbc = Predicate::atom(Atom::eq_cols(cat.col("b", "bk"), cat.col("c", "bfk")));
        // (a ⋈ b) ⋈ c
        let q1 = LogicalPlan::scan(a)
            .join(LogicalPlan::scan(b), jab.clone())
            .join(LogicalPlan::scan(c), jbc.clone());
        // a ⋈ (b ⋈ c)
        let q2 =
            LogicalPlan::scan(a).join(LogicalPlan::scan(b).join(LogicalPlan::scan(c), jbc), jab);
        (cat, q1, q2)
    }

    #[test]
    fn initial_dag_shares_leaves() {
        let (cat, q1, q2) = setup();
        let batch = Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]);
        let dag = Dag::initial(&batch, &cat, DagConfig::default());
        // 3 scans + (ab) + (abc from q1) + (bc) + (abc from q2) + root = 8
        // scans unify across queries.
        assert_eq!(dag.num_groups(), 8);
    }

    #[test]
    fn expansion_unifies_equivalent_join_orders() {
        let (cat, q1, q2) = setup();
        let batch = Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        // After expansion the two 3-relation root groups must have unified:
        // groups = 3 scans + {ab} + {bc} + {abc} + root = 7
        // ({ac} is a cross product — not generated by default.)
        assert_eq!(dag.num_groups(), 7, "\n{}", dag.dump());
        // the weights align with 2 queries
        assert_eq!(dag.root_weights(), &[1.0, 1.0]);
        // root op has two inputs pointing at the same group
        let ins = dag.op_inputs(dag.root_op());
        assert_eq!(ins.len(), 2);
        assert_eq!(dag.find(ins[0]), dag.find(ins[1]));
    }

    #[test]
    fn expansion_generates_commuted_and_associated_alternatives() {
        let (cat, q1, _) = setup();
        let batch = Batch::single("q1", q1);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        // The {abc} group must contain at least: J(ab,c), J(c,ab), J(a,bc),
        // J(bc,a) — 4 alternatives (no cross products).
        let root_in = dag.op_inputs(dag.root_op())[0];
        let n = dag.group_ops(root_in).count();
        assert!(
            n >= 4,
            "expected ≥4 join alternatives, got {n}\n{}",
            dag.dump()
        );
    }

    #[test]
    fn cross_products_generated_only_when_enabled() {
        let (cat, q1, _) = setup();
        let batch = Batch::single("q1", q1);
        let dag = Dag::expand(
            &batch,
            &cat,
            DagConfig {
                allow_cross_products: true,
                ..DagConfig::default()
            },
        );
        // with cross products the {ac} group also exists: 3 scans + ab +
        // bc + ac + abc + root = 8
        assert_eq!(dag.num_groups(), 8, "\n{}", dag.dump());
    }

    #[test]
    fn props_compose() {
        let (cat, q1, _) = setup();
        let batch = Batch::single("q1", q1);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        let root_in = dag.op_inputs(dag.root_op())[0];
        let g = dag.group(root_in);
        assert_eq!(g.relset.len(), 3);
        assert_eq!(g.cols.len(), 2 + 2 + 1); // ak + (bk, afk) + (ck, bfk)... a has 1 col
        assert!(g.rows >= 1.0);
    }
}
