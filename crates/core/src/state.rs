//! Incremental cost maintenance — the paper's Figure 5 (`UpdateCost`).
//!
//! Greedy calls `bestcost` with sets that differ in a single node; a full
//! bottom-up recomputation per call would dominate optimization time. The
//! incremental algorithm starts at the nodes whose materialization status
//! changed and propagates cost changes strictly upward in topological
//! order through a priority heap, so each affected node is recomputed at
//! most once per update.
//!
//! Propagation is op-granular: what changes first is the cost of single
//! *ops* — the consumers of the changed group, the temp-indexed ops
//! watching it, and the parent ops of a node whose cost moved. Only those
//! are marked dirty and re-evaluated; a popped node then takes the
//! minimum over its cached op costs in op order (first strict minimum, as
//! [`CostTable::recompute_node`] does), so the table is bit-identical to
//! a node-granular update.
//!
//! A benefit probe ([`CostState::probe`]) adds a node, reads the total
//! and takes the node back out. Instead of a second, reverse propagation
//! it logs every cost it overwrites on the way up and restores the log
//! backwards. The heap, the flags and the log are scratch buffers kept in
//! the state, so a probe allocates nothing once the first one has sized
//! them.

use crate::OptStats;
use mqo_cost::Cost;
use mqo_physical::{CostTable, MatSet, PhysNodeId, PhysOpId, PhysicalDag};
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
    scratch: Scratch,
}

/// The buffers of one propagation, reused across calls. Between calls
/// the heap and the log are empty and every flag is clear.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Nodes awaiting re-evaluation, lowest topological number first.
    heap: BinaryHeap<Reverse<(u32, PhysNodeId)>>,
    /// Per node: already in `heap`.
    queued: Vec<bool>,
    /// Per op: an input or its temp dependence changed since its cost
    /// was last evaluated.
    dirty: Vec<bool>,
    /// Op costs as they were before each write, oldest first.
    op_log: Vec<(PhysOpId, Cost)>,
    /// `(node_cost, best_op)` pairs as they were before each write,
    /// oldest first.
    node_log: Vec<(PhysNodeId, Cost, Option<PhysOpId>)>,
}

impl Scratch {
    /// Marks op `o` dirty and queues its node.
    fn mark(&mut self, pdag: &PhysicalDag, o: PhysOpId) {
        self.dirty[o.index()] = true;
        let node = pdag.op(o).node;
        if !self.queued[node.index()] {
            self.queued[node.index()] = true;
            self.heap.push(Reverse((pdag.node(node).topo, node)));
        }
    }
}

impl CostState {
    fn with_mat(pdag: &PhysicalDag, mat: MatSet, warm: MatSet) -> Self {
        CostState {
            table: CostTable::compute(pdag, &mat),
            mat,
            warm,
            scratch: Scratch {
                queued: vec![false; pdag.num_nodes()],
                dirty: vec![false; pdag.num_ops()],
                ..Scratch::default()
            },
        }
    }

    /// Full computation with an empty materialized set (plain Volcano).
    #[must_use]
    pub fn new(pdag: &PhysicalDag) -> Self {
        Self::with_mat(pdag, MatSet::new(), MatSet::new())
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
        Self::with_mat(pdag, mat, warm.clone())
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
            self.propagate(pdag, n, stats, false);
        }
    }

    /// Removes `n` from the materialized set, incrementally updating
    /// costs.
    pub fn remove_mat(&mut self, pdag: &PhysicalDag, n: PhysNodeId, stats: &mut OptStats) {
        if self.mat.remove(pdag, n) {
            self.propagate(pdag, n, stats, false);
        }
    }

    /// `bestcost` with `n` added to the materialized set, probed in
    /// place: the state afterwards is bit-identical to before — table,
    /// best ops and set, per-group [`MatSet::variants_of`] order
    /// included. The addition propagates once while logging every cost
    /// it overwrites; the log is then restored in reverse, so undoing the
    /// probe costs no second propagation (and counts none in
    /// [`OptStats::cost_propagations`]). Removing the node just pushed
    /// leaves the order of the other variants of its group as it was.
    /// Probing a node already in the set returns the current total.
    // mqo-analyze: allow(mut-self-entry): mutates only the caller's search-local state and restores it, like `removal_gains`
    pub fn probe(&mut self, pdag: &PhysicalDag, n: PhysNodeId, stats: &mut OptStats) -> Cost {
        if !self.mat.insert(pdag, n) {
            return self.total(pdag);
        }
        self.propagate(pdag, n, stats, true);
        let total = self.total(pdag);
        self.mat.remove(pdag, n);
        self.restore();
        total
    }

    /// Undoes the logged writes, newest first.
    fn restore(&mut self) {
        let Self { table, scratch, .. } = self;
        for (o, c) in scratch.op_log.drain(..).rev() {
            table.op_cost[o.index()] = c;
        }
        for (n, c, best) in scratch.node_log.drain(..).rev() {
            table.node_cost[n.index()] = c;
            table.best_op[n.index()] = best;
        }
    }

    /// Figure 5: propagate the status change of `n` upward. The seeds are
    /// the consumers of any variant of `n`'s group (their charged input
    /// cost `C` changed) and the reuse-sensitive ops watching the group
    /// (temp-indexed selects/joins); a node whose cost changes dirties
    /// its parent ops, in topological order via the heap. With `log`,
    /// every overwritten cost is recorded for [`CostState::restore`].
    fn propagate(&mut self, pdag: &PhysicalDag, n: PhysNodeId, stats: &mut OptStats, log: bool) {
        let Self {
            table,
            mat,
            scratch,
            ..
        } = self;
        let group = pdag.node(n).group;
        for &v in pdag.variants(group) {
            for &p in &pdag.node(v).parents {
                scratch.mark(pdag, p);
            }
        }
        for &w in pdag.temp_watchers(group) {
            scratch.mark(pdag, w);
        }
        while let Some(Reverse((_, node))) = scratch.heap.pop() {
            scratch.queued[node.index()] = false;
            stats.cost_propagations += 1;
            let mut best = Cost::INFINITY;
            let mut best_op = None;
            for &o in &pdag.node(node).ops {
                if scratch.dirty[o.index()] {
                    scratch.dirty[o.index()] = false;
                    let c = table.eval_op(pdag, mat, o);
                    let old = std::mem::replace(&mut table.op_cost[o.index()], c);
                    if log {
                        scratch.op_log.push((o, old));
                    }
                }
                let c = table.op_cost[o.index()];
                if c < best {
                    best = c;
                    best_op = Some(o);
                }
            }
            let old = std::mem::replace(&mut table.node_cost[node.index()], best);
            let old_op = std::mem::replace(&mut table.best_op[node.index()], best_op);
            if log {
                scratch.node_log.push((node, old, old_op));
            }
            if old != best {
                for &p in &pdag.node(node).parents {
                    scratch.mark(pdag, p);
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
    /// place: remove, read the total, restore. Used by descent passes
    /// (e.g. the KS15 strategy's pruning step) that repeatedly ask
    /// "which member is now deadweight?".
    ///
    /// The removal propagates once with its writes logged, and the log
    /// is restored in reverse, as in [`CostState::probe`]. The set is
    /// restored by copying it back, not by re-inserting the node: a
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
                if !self.mat.remove(pdag, n) {
                    return (before - self.total(pdag)).secs();
                }
                self.propagate(pdag, n, stats, true);
                let after = self.total(pdag);
                self.mat.clone_from(&mat);
                self.restore();
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

    fn bits(costs: &[Cost]) -> Vec<u64> {
        costs.iter().map(|c| c.secs().to_bits()).collect()
    }

    /// Every node and op cost and every best op of `state`, bit for bit,
    /// against a full recomputation under its set.
    fn assert_exact(pdag: &PhysicalDag, state: &CostState, what: &str) {
        let oracle = CostTable::compute(pdag, &state.mat);
        assert_eq!(
            bits(&state.table.node_cost),
            bits(&oracle.node_cost),
            "node costs after {what}"
        );
        assert_eq!(
            bits(&state.table.op_cost),
            bits(&oracle.op_cost),
            "op costs after {what}"
        );
        assert_eq!(state.table.best_op, oracle.best_op, "best ops after {what}");
    }

    /// Every variant of a sharable group: the candidates Greedy probes.
    fn sharable_variants(dag: &Dag, pdag: &PhysicalDag) -> Vec<PhysNodeId> {
        let mut cands: Vec<PhysNodeId> = Vec::new();
        for (g, _) in mqo_dag::sharable_groups(dag) {
            cands.extend(pdag.variants(g).iter().copied());
        }
        assert!(!cands.is_empty(), "expected sharable candidates");
        cands
    }

    /// The incremental update agrees exactly — bit for bit, best ops
    /// included — with a full recomputation after every add/remove: the
    /// central invariant.
    #[test]
    fn incremental_matches_full_recompute() {
        let (_cat, dag, pdag) = context();
        let mut stats = OptStats::default();
        let mut state = CostState::new(&pdag);
        let cands = sharable_variants(&dag, &pdag);
        for (i, &n) in cands.iter().enumerate() {
            state.add_mat(&pdag, n, &mut stats);
            assert_exact(&pdag, &state, &format!("add {i}"));
        }
        // now remove in arbitrary order and re-check
        for (i, &n) in cands.iter().rev().enumerate() {
            state.remove_mat(&pdag, n, &mut stats);
            assert_exact(&pdag, &state, &format!("remove {i}"));
        }
        assert!(stats.cost_propagations > 0);
    }

    /// A probe returns the total a cloned state reports after `add_mat`,
    /// bit for bit, and leaves the table, the best ops and the set (with
    /// every group's variant order) exactly as they were — across a sweep
    /// that commits two candidates of every three in between.
    #[test]
    fn probe_leaves_state_bit_identical() {
        let (_cat, dag, pdag) = context();
        let mut stats = OptStats::default();
        let mut state = CostState::new(&pdag);
        let cands = sharable_variants(&dag, &pdag);
        let variant_lists = |s: &CostState| -> Vec<Vec<PhysNodeId>> {
            cands
                .iter()
                .map(|&n| s.mat.variants_of(pdag.node(n).group).to_vec())
                .collect()
        };
        let mut probed = 0;
        for (i, &n) in cands.iter().enumerate() {
            let before = state.clone();
            let mut added = state.clone();
            added.add_mat(&pdag, n, &mut OptStats::default());
            let got = state.probe(&pdag, n, &mut stats);
            assert_eq!(
                got.secs().to_bits(),
                added.total(&pdag).secs().to_bits(),
                "probe {i}"
            );
            assert_eq!(bits(&state.table.node_cost), bits(&before.table.node_cost));
            assert_eq!(bits(&state.table.op_cost), bits(&before.table.op_cost));
            assert_eq!(state.table.best_op, before.table.best_op);
            assert_eq!(
                state.mat.iter().collect::<Vec<_>>(),
                before.mat.iter().collect::<Vec<_>>()
            );
            assert_eq!(variant_lists(&state), variant_lists(&before));
            probed += usize::from(!before.mat.contains(n));
            if i % 3 != 2 {
                state.add_mat(&pdag, n, &mut stats);
                assert_exact(&pdag, &state, &format!("commit {i}"));
            }
        }
        assert!(probed > 0);
        assert!(
            cands
                .iter()
                .any(|&n| state.mat.variants_of(pdag.node(n).group).len() > 1),
            "the sweep should commit several variants of one group"
        );
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
