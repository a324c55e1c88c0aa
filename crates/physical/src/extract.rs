//! Plan extraction: turning a cost table plus a materialized set into an
//! executable, DAG-structured shared plan.

use crate::cost_table::{CostTable, MatSet};
use crate::pdag::{PhysNodeId, PhysOpId, PhysicalDag};
use mqo_catalog::Catalog;
use mqo_cost::Cost;
use mqo_util::{FxHashMap, FxHashSet};

/// How a plan satisfies a physical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenOp {
    /// Evaluate this op.
    Compute(PhysOpId),
    /// Read the materialized temp of the given node (a satisfying variant
    /// of the same group).
    Reuse(PhysNodeId),
}

/// A DAG-structured shared plan: per referenced node, how it is obtained;
/// materialized definitions are computed once (in topological order) and
/// read everywhere else.
#[derive(Debug, Clone)]
pub struct ExtractedPlan {
    /// Choice per referenced node. Materialized nodes map to the op that
    /// computes their definition.
    pub choices: FxHashMap<PhysNodeId, ChosenOp>,
    /// The pseudo-root node.
    pub root: PhysNodeId,
    /// Per-query root nodes, in batch order.
    pub query_roots: Vec<PhysNodeId>,
    /// Materialized nodes actually referenced by the plan, in topological
    /// order (safe evaluation order). **Cold** temps only: the plan
    /// computes and materializes these itself.
    pub materialized: Vec<PhysNodeId>,
    /// Warm temps the plan reads but does **not** compute: nodes whose
    /// materialization survives from an earlier batch (a serving
    /// session's `MvStore`). The executor must be seeded with a table
    /// per entry (see `mqo-exec`'s `try_execute_plan_seeded`); in
    /// topological order. Empty outside a warm-cache session.
    pub warm_used: Vec<PhysNodeId>,
    /// Estimated total cost (`bestcost` over the referenced set; warm
    /// temps charged at reuse only).
    pub total_cost: Cost,
}

impl ExtractedPlan {
    /// Extracts the best shared plan under `mat` (no warm cache).
    #[must_use]
    pub fn extract(pdag: &PhysicalDag, table: &CostTable, mat: &MatSet) -> ExtractedPlan {
        Self::extract_with_warm(pdag, table, mat, &MatSet::new())
    }

    /// Extracts the best shared plan under `mat`, where the members of
    /// `warm ⊆ mat` are already materialized by an earlier batch: their
    /// definitions are *not* part of this plan (they surface in
    /// [`ExtractedPlan::warm_used`] instead of
    /// [`ExtractedPlan::materialized`]), uses of them become temp reads,
    /// and [`ExtractedPlan::total_cost`] charges them nothing beyond the
    /// reuse reads already folded into `table`'s node costs.
    #[must_use]
    pub fn extract_with_warm(
        pdag: &PhysicalDag,
        table: &CostTable,
        mat: &MatSet,
        warm: &MatSet,
    ) -> ExtractedPlan {
        let mut ex = Extractor {
            pdag,
            table,
            mat,
            warm,
            choices: FxHashMap::default(),
            mat_used: FxHashSet::default(),
            warm_used: FxHashSet::default(),
        };
        let root = pdag.root();
        ex.define(root);
        let root_op = match ex.choices[&root] {
            ChosenOp::Compute(o) => o,
            ChosenOp::Reuse(_) => unreachable!("root is never materialized"),
        };
        let query_roots = pdag.op(root_op).inputs.clone();
        // mqo-analyze: allow(hash-iteration): collected then totally ordered by the unique topo index on the next line
        let mut materialized: Vec<PhysNodeId> = ex.mat_used.iter().copied().collect();
        materialized.sort_by_key(|&n| pdag.node(n).topo);
        // mqo-analyze: allow(hash-iteration): collected then totally ordered by the unique topo index on the next line
        let mut warm_used: Vec<PhysNodeId> = ex.warm_used.iter().copied().collect();
        warm_used.sort_by_key(|&n| pdag.node(n).topo);
        let choices = ex.choices;
        // total = root + Σ (compute + matcost) over *referenced* cold
        // temps; warm temps were paid for by an earlier batch
        let mut total = table.node_cost[root.index()];
        for &m in &materialized {
            total += table.node_cost[m.index()] + pdag.matcost(m);
        }
        ExtractedPlan {
            choices,
            root,
            query_roots,
            materialized,
            warm_used,
            total_cost: total,
        }
    }

    /// Pretty-prints the plan with operator names and sharing markers.
    #[must_use]
    pub fn explain(&self, pdag: &PhysicalDag, _catalog: &Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // mqo-analyze: allow(hash-iteration): `ExtractedPlan::warm_used` is a topo-sorted `Vec`; the name collides with the extractor's scratch set
        for &m in &self.warm_used {
            let node = pdag.node(m);
            let _ = writeln!(
                out,
                "warm g{}:{} (cached by an earlier batch)",
                node.group, node.prop
            );
        }
        for &m in &self.materialized {
            let node = pdag.node(m);
            let _ = writeln!(out, "materialize g{}:{} {{", node.group, node.prop);
            self.explain_node(pdag, m, 1, &mut out, true);
            let _ = writeln!(out, "}}");
        }
        for (i, &q) in self.query_roots.iter().enumerate() {
            let _ = writeln!(out, "query {i}:");
            self.explain_node(pdag, q, 1, &mut out, false);
        }
        out
    }

    fn explain_node(
        &self,
        pdag: &PhysicalDag,
        n: PhysNodeId,
        depth: usize,
        out: &mut String,
        inside_def: bool,
    ) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        // A use-site of a materialized node reads the temp.
        if !inside_def {
            if let Some(m) = self.reuse_of(n) {
                let node = pdag.node(m);
                let _ = writeln!(out, "{pad}ReadTemp g{}:{}", node.group, node.prop);
                return;
            }
        }
        match self.choices.get(&n) {
            Some(&ChosenOp::Reuse(m)) => {
                let node = pdag.node(m);
                let _ = writeln!(out, "{pad}ReadTemp g{}:{}", node.group, node.prop);
            }
            Some(&ChosenOp::Compute(o)) => {
                let op = pdag.op(o);
                let _ = writeln!(out, "{pad}{}", op.algo.name());
                for &c in &op.inputs {
                    self.explain_node(pdag, c, depth + 1, out, false);
                }
            }
            None => {
                let _ = writeln!(out, "{pad}<unextracted node {n}>");
            }
        }
    }

    /// The materialized node this plan reads at uses of `n`, if any.
    #[must_use]
    pub fn reuse_of(&self, n: PhysNodeId) -> Option<PhysNodeId> {
        match self.choices.get(&n) {
            Some(&ChosenOp::Reuse(m)) => Some(m),
            Some(&ChosenOp::Compute(_)) if self.materialized.contains(&n) => Some(n),
            _ => None,
        }
    }
}

struct Extractor<'a> {
    pdag: &'a PhysicalDag,
    table: &'a CostTable,
    mat: &'a MatSet,
    warm: &'a MatSet,
    choices: FxHashMap<PhysNodeId, ChosenOp>,
    mat_used: FxHashSet<PhysNodeId>,
    warm_used: FxHashSet<PhysNodeId>,
}

impl Extractor<'_> {
    /// Resolves a *use* of node `n` by a consumer with topological number
    /// `consumer_topo`: reuse a materialized variant when beneficial (and
    /// well-founded — see `CostTable::c_value_at`), otherwise compute it
    /// in place.
    fn visit_use(&mut self, n: PhysNodeId, consumer_topo: u32) {
        if let Some(m) = self.mat.reusable_for(self.pdag, n) {
            let reuse = self.pdag.reusecost(m);
            if self.pdag.node(m).topo < consumer_topo && reuse <= self.table.node_cost[n.index()] {
                self.mark_reuse(n, m);
                return;
            }
        }
        self.define(n);
    }

    /// Records that uses of `n` read the temp of `m` and pulls `m` into
    /// the plan — as a cold definition, or as a warm read when an earlier
    /// batch already materialized it.
    fn mark_reuse(&mut self, n: PhysNodeId, m: PhysNodeId) {
        if self.warm.contains(m) {
            // A warm temp has no definition in this plan; every use —
            // including m's own node — resolves to a seeded temp read.
            self.choices.entry(n).or_insert(ChosenOp::Reuse(m));
            self.warm_used.insert(m);
            return;
        }
        if m != n {
            self.choices.entry(n).or_insert(ChosenOp::Reuse(m));
        }
        self.require_temp(m);
    }

    /// Ensures `m`'s definition is part of the plan and marked
    /// materialized.
    fn require_temp(&mut self, m: PhysNodeId) {
        if self.mat_used.insert(m) {
            self.define(m);
        }
    }

    /// Emits the computing definition of `n`.
    fn define(&mut self, n: PhysNodeId) {
        if let Some(&ChosenOp::Compute(_)) = self.choices.get(&n) {
            return;
        }
        let o = self.table.best_op[n.index()].unwrap_or_else(|| {
            panic!(
                "extracting node {n} with no feasible op (cost {})",
                self.table.node_cost[n.index()]
            )
        });
        self.choices.insert(n, ChosenOp::Compute(o));
        let consumer_topo = self.pdag.node(n).topo;
        let op = self.pdag.op(o);
        if let Some(td) = op.temp_dep {
            let m = self
                .mat
                .sorted_on(self.pdag, td.source, td.key)
                .expect("temp-dependent op chosen without its temp");
            if self.warm.contains(m) {
                self.warm_used.insert(m);
            } else {
                self.require_temp(m);
            }
        }
        for &c in &op.inputs.clone() {
            self.visit_use(c, consumer_topo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::PhysProp;
    use mqo_cost::CostParams;
    use mqo_dag::{Dag, DagConfig};
    use mqo_expr::{Atom, Predicate};
    use mqo_logical::{Batch, LogicalPlan, Query};

    fn setup() -> (Catalog, Dag, PhysicalDag) {
        let mut cat = Catalog::new();
        let a = cat
            .table("a")
            .rows(50_000.0)
            .int_key("ak")
            .int_uniform("av", 0, 99)
            .clustered_on_first()
            .build();
        let b = cat
            .table("b")
            .rows(100_000.0)
            .int_key("bk")
            .int_uniform("afk", 0, 49_999)
            .clustered_on_first()
            .build();
        let av = cat.col("a", "av");
        let bk = cat.col("b", "bk");
        let total = cat.derived_column(
            "total",
            mqo_catalog::ColType::Float,
            mqo_catalog::ColStats::opaque(100.0),
        );
        let jab = Predicate::atom(Atom::eq_cols(cat.col("a", "ak"), cat.col("b", "afk")));
        let q = LogicalPlan::scan(a)
            .join(LogicalPlan::scan(b), jab)
            .aggregate(
                vec![av],
                vec![mqo_expr::AggExpr::new(
                    mqo_expr::AggFunc::Sum,
                    mqo_expr::ScalarExpr::col(bk),
                    total,
                )],
            );
        let batch = Batch::of(vec![Query::new("q1", q.clone()), Query::new("q2", q)]);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        let pdag = PhysicalDag::build(&dag, &cat, CostParams::default());
        (cat, dag, pdag)
    }

    #[test]
    fn extraction_without_materialization_reaches_all_queries() {
        let (_cat, _dag, pdag) = setup();
        let mat = MatSet::new();
        let t = CostTable::compute(&pdag, &mat);
        let plan = ExtractedPlan::extract(&pdag, &t, &mat);
        assert_eq!(plan.query_roots.len(), 2);
        assert!(plan.materialized.is_empty());
        assert!(plan.total_cost.is_finite());
        // both query roots resolve to computing choices
        for &q in &plan.query_roots {
            assert!(matches!(plan.choices[&q], ChosenOp::Compute(_)));
        }
    }

    #[test]
    fn extraction_with_materialized_join_reuses_it() {
        let (_cat, dag, pdag) = setup();
        let join_group = dag.op_inputs(dag.root_op())[0]; // the shared aggregate group
        let n = pdag.node_for(join_group, &PhysProp::Any).unwrap();
        let mut mat = MatSet::new();
        mat.insert(&pdag, n);
        let t = CostTable::compute(&pdag, &mat);
        let plan = ExtractedPlan::extract(&pdag, &t, &mat);
        assert_eq!(plan.materialized, vec![n]);
        // the join definition is computed once; query roots either ARE the
        // join node (reuse recorded via materialized membership) or read it
        assert!(matches!(plan.choices[&n], ChosenOp::Compute(_)));
        assert_eq!(plan.reuse_of(n), Some(n));
        // total equals table.total for the same mat set
        let expected = t.total(&pdag, &mat);
        assert!((plan.total_cost.secs() - expected.secs()).abs() < 1e-9);
    }

    #[test]
    fn explain_renders_structure() {
        let (cat, dag, pdag) = setup();
        let join_group = dag.op_inputs(dag.root_op())[0]; // the shared aggregate group
        let n = pdag.node_for(join_group, &PhysProp::Any).unwrap();
        let mut mat = MatSet::new();
        mat.insert(&pdag, n);
        let t = CostTable::compute(&pdag, &mat);
        let plan = ExtractedPlan::extract(&pdag, &t, &mat);
        let text = plan.explain(&pdag, &cat);
        assert!(text.contains("materialize"), "{text}");
        assert!(text.contains("query 0"), "{text}");
        assert!(text.contains("ReadTemp"), "{text}");
    }
}
