//! Incremental cost maintenance — the paper's Figure 5 (`UpdateCost`).
//!
//! Greedy calls `bestcost` with sets that differ in a single node; a full
//! bottom-up recomputation per call would dominate optimization time. The
//! incremental algorithm starts at the nodes whose materialization status
//! changed and propagates cost changes strictly upward in topological
//! order through a priority heap (`PropHeap`), so each affected node is
//! recomputed at most once per update.

use crate::OptStats;
use mqo_cost::Cost;
use mqo_physical::{CostTable, MatSet, PhysNodeId, PhysicalDag};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A cost table paired with the materialized set it reflects, supporting
/// incremental transitions between materialized sets.
#[derive(Debug, Clone)]
pub struct CostState {
    /// Current per-node/per-op costs (always consistent with `mat`).
    pub table: CostTable,
    /// The materialized set. Always a superset of `warm`.
    pub mat: MatSet,
    /// Nodes materialized by an *earlier* batch (a serving session's
    /// cache): they participate in `mat` — consumers are charged reuse
    /// cost — but [`CostState::total`] charges them no compute or
    /// materialization cost, so the search plans *around* the warm cache
    /// instead of re-paying for it. Empty outside a session.
    pub warm: MatSet,
}

impl CostState {
    /// Full computation with an empty materialized set (plain Volcano).
    #[must_use]
    pub fn new(pdag: &PhysicalDag) -> Self {
        let mat = MatSet::new();
        let table = CostTable::compute(pdag, &mat);
        CostState {
            table,
            mat,
            warm: MatSet::new(),
        }
    }

    /// Full computation with the warm set pre-materialized — the
    /// starting state of a search over a batch served from a live
    /// materialized-view cache.
    #[must_use]
    pub fn seeded(pdag: &PhysicalDag, warm: &MatSet) -> Self {
        let mut mat = MatSet::new();
        for n in warm.iter() {
            mat.insert(pdag, n);
        }
        let table = CostTable::compute(pdag, &mat);
        CostState {
            table,
            mat,
            warm: warm.clone(),
        }
    }

    /// `bestcost(Q, mat)` (paper §4): root cost plus compute+materialize
    /// cost of every **cold** materialized node (warm nodes were paid for
    /// by the batch that built them).
    #[must_use]
    pub fn total(&self, pdag: &PhysicalDag) -> Cost {
        self.table.total_excluding(pdag, &self.mat, &self.warm)
    }

    /// Adds `n` to the materialized set, incrementally updating costs.
    pub fn add_mat(&mut self, pdag: &PhysicalDag, n: PhysNodeId, stats: &mut OptStats) {
        if self.mat.insert(pdag, n) {
            self.propagate(pdag, n, stats);
        }
    }

    /// Removes `n` from the materialized set, incrementally updating
    /// costs.
    pub fn remove_mat(&mut self, pdag: &PhysicalDag, n: PhysNodeId, stats: &mut OptStats) {
        if self.mat.remove(pdag, n) {
            self.propagate(pdag, n, stats);
        }
    }

    /// Figure 5: propagate the status change of `n` upward. Seeds are the
    /// consumers of any variant of `n`'s group (their charged input cost
    /// `C` changed) and the reuse-sensitive ops watching the group
    /// (temp-indexed selects/joins); changes then ripple to parents in
    /// topological order via the `PropHeap`.
    fn propagate(&mut self, pdag: &PhysicalDag, n: PhysNodeId, stats: &mut OptStats) {
        let mut heap: BinaryHeap<Reverse<(u32, PhysNodeId)>> = BinaryHeap::new();
        let mut queued = vec![false; pdag.num_nodes()];
        let push = |heap: &mut BinaryHeap<Reverse<(u32, PhysNodeId)>>,
                    queued: &mut Vec<bool>,
                    node: PhysNodeId| {
            if !queued[node.index()] {
                queued[node.index()] = true;
                heap.push(Reverse((pdag.node(node).topo, node)));
            }
        };
        let group = pdag.node(n).group;
        for &v in pdag.variants(group) {
            for &p in &pdag.node(v).parents {
                push(&mut heap, &mut queued, pdag.op(p).node);
            }
        }
        for &w in pdag.temp_watchers(group) {
            push(&mut heap, &mut queued, pdag.op(w).node);
        }
        while let Some(Reverse((_, node))) = heap.pop() {
            queued[node.index()] = false;
            stats.cost_propagations += 1;
            let changed = self.table.recompute_node(pdag, &self.mat, node);
            if changed {
                for &p in &pdag.node(node).parents {
                    let pn = pdag.op(p).node;
                    push(&mut heap, &mut queued, pn);
                }
            }
        }
    }

    /// Full recomputation (the ablation baseline for Figure 5's
    /// optimization; also used by tests as the correctness oracle).
    pub fn recompute_full(&mut self, pdag: &PhysicalDag) {
        self.table = CostTable::compute(pdag, &self.mat);
    }

    /// Total-cost reduction from *removing* each of `nodes`, probed in
    /// place: remove, read the total, re-add. Used by descent passes
    /// (e.g. the KS15 strategy's pruning step) that repeatedly ask
    /// "which member is now deadweight?".
    ///
    /// The re-add restores the set as it was, not just its members: a
    /// plain [`MatSet::insert`] would put the node at the back of its
    /// group's [`MatSet::variants_of`] list, the list reuse picks its
    /// source from, and a later probe would see a different state. So
    /// every gain is the one a throwaway clone would report, and the
    /// state ends bit-identical to how it started.
    // mqo-analyze: allow(mut-self-entry): mutates only the caller's search-local state, like `add_mat`/`remove_mat`
    pub fn removal_gains(
        &mut self,
        pdag: &PhysicalDag,
        nodes: &[PhysNodeId],
        stats: &mut OptStats,
    ) -> Vec<f64> {
        let before = self.total(pdag);
        let mat = self.mat.clone();
        nodes
            .iter()
            .map(|&n| {
                stats.benefit_recomputations += 1;
                self.remove_mat(pdag, n, stats);
                let after = self.total(pdag);
                self.mat.clone_from(&mat);
                self.propagate(pdag, n, stats);
                (before - after).secs()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::Catalog;
    use mqo_cost::CostParams;
    use mqo_dag::{Dag, DagConfig};
    use mqo_expr::{AggExpr, AggFunc, Atom, Predicate, ScalarExpr};
    use mqo_logical::{Batch, LogicalPlan, Query};
    use mqo_physical::PhysProp;

    fn context() -> (Catalog, Dag, PhysicalDag) {
        let mut cat = Catalog::new();
        let a = cat
            .table("a")
            .rows(80_000.0)
            .int_key("ak")
            .int_uniform("av", 0, 199)
            .clustered_on_first()
            .build();
        let b = cat
            .table("b")
            .rows(120_000.0)
            .int_key("bk")
            .int_uniform("afk", 0, 79_999)
            .clustered_on_first()
            .build();
        let c = cat
            .table("c")
            .rows(40_000.0)
            .int_key("ck")
            .int_uniform("bfk", 0, 119_999)
            .build();
        let av = cat.col("a", "av");
        let bk = cat.col("b", "bk");
        let t1 = cat.derived_column(
            "t1",
            mqo_catalog::ColType::Float,
            mqo_catalog::ColStats::opaque(200.0),
        );
        let jab = Predicate::atom(Atom::eq_cols(cat.col("a", "ak"), cat.col("b", "afk")));
        let jbc = Predicate::atom(Atom::eq_cols(bk, cat.col("c", "bfk")));
        let agg = |p: LogicalPlan| {
            p.aggregate(
                vec![av],
                vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(bk), t1)],
            )
        };
        let q1 = agg(LogicalPlan::scan(a).join(LogicalPlan::scan(b), jab.clone()));
        let q2 = agg(LogicalPlan::scan(a)
            .join(LogicalPlan::scan(b), jab)
            .join(LogicalPlan::scan(c), jbc));
        let batch = Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]);
        let dag = Dag::expand(&batch, &cat, DagConfig::default());
        let pdag = PhysicalDag::build(&dag, &cat, CostParams::default());
        (cat, dag, pdag)
    }

    /// The incremental update must agree exactly with a full
    /// recomputation after every add/remove — the central invariant.
    #[test]
    fn incremental_matches_full_recompute() {
        let (_cat, dag, pdag) = context();
        let mut stats = OptStats::default();
        let mut state = CostState::new(&pdag);
        // candidate nodes: every variant of every sharable group
        let mut cands: Vec<PhysNodeId> = Vec::new();
        for (g, _) in mqo_dag::sharable_groups(&dag) {
            cands.extend(pdag.variants(g).iter().copied());
        }
        assert!(!cands.is_empty(), "expected sharable candidates");
        for (i, &n) in cands.iter().enumerate() {
            state.add_mat(&pdag, n, &mut stats);
            let oracle = CostTable::compute(&pdag, &state.mat);
            for idx in 0..pdag.num_nodes() {
                let a = state.table.node_cost[idx];
                let b = oracle.node_cost[idx];
                assert!(
                    (a.secs() - b.secs()).abs() < 1e-9
                        || (a == Cost::INFINITY && b == Cost::INFINITY),
                    "node {idx} diverged after add {i}: {a} vs {b}"
                );
            }
        }
        // now remove in arbitrary order and re-check
        for &n in cands.iter().rev() {
            state.remove_mat(&pdag, n, &mut stats);
            let oracle = CostTable::compute(&pdag, &state.mat);
            for idx in 0..pdag.num_nodes() {
                let a = state.table.node_cost[idx];
                let b = oracle.node_cost[idx];
                assert!(
                    (a.secs() - b.secs()).abs() < 1e-9
                        || (a == Cost::INFINITY && b == Cost::INFINITY),
                    "node {idx} diverged after remove: {a} vs {b}"
                );
            }
        }
        assert!(stats.cost_propagations > 0);
    }

    #[test]
    fn add_remove_is_identity() {
        let (_cat, dag, pdag) = context();
        let mut stats = OptStats::default();
        let mut state = CostState::new(&pdag);
        let before: Vec<Cost> = state.table.node_cost.clone();
        let total_before = state.total(&pdag);
        let (g, _) = mqo_dag::sharable_groups(&dag)[0];
        let n = pdag.node_for(g, &PhysProp::Any).unwrap();
        state.add_mat(&pdag, n, &mut stats);
        state.remove_mat(&pdag, n, &mut stats);
        assert_eq!(state.total(&pdag), total_before);
        for (i, c) in state.table.node_cost.iter().enumerate() {
            assert_eq!(*c, before[i], "node {i}");
        }
    }

    /// `removal_gains` probes in place: afterwards every node and op
    /// cost, every best op and the materialized set (per-group variant
    /// order included) are bit-identical to before, and each gain is the
    /// one a throwaway clone of the starting state reports — also when
    /// the probe order is not the insertion order.
    #[test]
    fn removal_gains_restore_the_state_and_match_fresh_probes() {
        let (_cat, dag, pdag) = context();
        let mut stats = OptStats::default();
        let mut state = CostState::new(&pdag);
        let mut members: Vec<PhysNodeId> = Vec::new();
        for (g, _) in mqo_dag::sharable_groups(&dag) {
            members.extend(pdag.variants(g).iter().copied());
        }
        members.sort();
        for &n in &members {
            state.add_mat(&pdag, n, &mut stats);
        }
        assert!(
            members
                .iter()
                .any(|&n| state.mat.variants_of(pdag.node(n).group).len() > 1),
            "the fixture should materialize several variants of one group"
        );
        let start = state.clone();
        let variant_lists = |s: &CostState| -> Vec<Vec<PhysNodeId>> {
            members
                .iter()
                .map(|&n| s.mat.variants_of(pdag.node(n).group).to_vec())
                .collect()
        };
        let bits =
            |costs: &[Cost]| -> Vec<u64> { costs.iter().map(|c| c.secs().to_bits()).collect() };

        let probes: Vec<PhysNodeId> = members.iter().rev().copied().collect();
        let gains = state.removal_gains(&pdag, &probes, &mut stats);

        assert_eq!(bits(&state.table.node_cost), bits(&start.table.node_cost));
        assert_eq!(bits(&state.table.op_cost), bits(&start.table.op_cost));
        assert_eq!(state.table.best_op, start.table.best_op);
        assert_eq!(
            state.mat.iter().collect::<Vec<_>>(),
            start.mat.iter().collect::<Vec<_>>()
        );
        assert_eq!(variant_lists(&state), variant_lists(&start));
        for (k, &n) in probes.iter().enumerate() {
            let mut fresh = start.clone();
            fresh.remove_mat(&pdag, n, &mut OptStats::default());
            let want = (start.total(&pdag) - fresh.total(&pdag)).secs();
            assert_eq!(gains[k].to_bits(), want.to_bits(), "gain of {n}");
        }
    }

    #[test]
    fn double_add_is_noop() {
        let (_cat, dag, pdag) = context();
        let mut stats = OptStats::default();
        let mut state = CostState::new(&pdag);
        let (g, _) = mqo_dag::sharable_groups(&dag)[0];
        let n = pdag.node_for(g, &PhysProp::Any).unwrap();
        state.add_mat(&pdag, n, &mut stats);
        let props_after_first = stats.cost_propagations;
        state.add_mat(&pdag, n, &mut stats);
        assert_eq!(stats.cost_propagations, props_after_first);
    }
}
