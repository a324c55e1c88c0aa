//! Volcano-RU (paper §3.3, Figure 3).

use crate::consolidated::{sh_decide, subsumption_prepass, PlanGraph};
use crate::state::CostState;
use crate::{OptContext, OptStats, Optimized, Options, Strategy, Volcano};
use mqo_physical::{MatSet, PhysNodeId, PhysicalDag};
use mqo_util::{FxHashMap, MqoError};

/// The Volcano-RU strategy (registry name `"Volcano-RU"`): optimize the
/// queries in sequence; after each query, note which nodes of its best
/// plan would be worth materializing *if used once more* and let later
/// queries reuse them. A final Volcano-SH pass over the combined plan
/// makes the actual materialization decisions. Both the given and the
/// reverse query order are tried and the cheaper result returned
/// (§3.3's ordering note).
///
/// Searching panics if the physical DAG has no pseudo-root op.
#[derive(Debug, Clone, Copy, Default)]
pub struct VolcanoRu;

impl Strategy for VolcanoRu {
    fn name(&self) -> &str {
        "Volcano-RU"
    }

    fn search(&self, ctx: &OptContext<'_>, options: &Options) -> Result<Optimized, MqoError> {
        let forward = run_order(ctx, false);
        let reverse = run_order(ctx, true);
        // Volcano is RU's degenerate case (empty N); keeping it as a floor
        // guarantees RU never loses to independent optimization even when a
        // later query's plan banked on a speculative reuse that the final
        // Volcano-SH pass declined to materialize.
        let fallback = Volcano.search(ctx, options)?;
        let mut best = forward;
        for r in [reverse, fallback] {
            // strict: of equally cheap results the earlier one is kept
            if r.cost.total_cmp(&best.cost).is_lt() {
                best = r;
            }
        }
        best.stats.materialized = best.mat.len();
        Ok(best)
    }
}

fn run_order(ctx: &OptContext<'_>, reversed: bool) -> Optimized {
    let pdag = &ctx.pdag;
    let mut stats = OptStats::default();
    let mut state = CostState::new(pdag);

    // Query roots in optimization order, with their weights.
    let root_op = pick_root_op(pdag);
    let mut queries: Vec<(PhysNodeId, f64)> = {
        let op = pdag.op(root_op);
        let ws = op
            .weights
            .clone()
            .unwrap_or_else(|| vec![1.0; op.inputs.len()]);
        op.inputs.iter().copied().zip(ws).collect()
    };
    if reversed {
        queries.reverse();
    }

    let mut graph = PlanGraph::empty();
    let mut count: FxHashMap<PhysNodeId, f64> = FxHashMap::default();
    let mut n_set = MatSet::new(); // the paper's N: potentially materialized
    let mut root_children: Vec<(usize, usize)> = Vec::new(); // (orig position, idx)

    for (pos, &(qroot, weight)) in queries.iter().enumerate() {
        // optimize this query assuming nodes in N are materialized
        // (state.table already reflects n_set)
        let before = graph.nodes.len();
        let idx = graph.add_query(pdag, &state.table, &state.mat, qroot, weight);
        root_children.push((pos, idx));
        // examine the nodes of this query's plan: newly defined nodes plus
        // every node of the subtree rooted at idx
        let plan_nodes = subtree_nodes(&graph, idx);
        let _ = before;
        for &i in &plan_nodes {
            let phys = graph.nodes[i].phys;
            if ctx.dag.group(pdag.node(phys).group).has_param {
                continue;
            }
            let cnt = count.entry(phys).or_insert(0.0);
            *cnt += weight;
            let cost = state.table.node_cost[phys.index()];
            let matc = pdag.matcost(phys);
            let reuse = pdag.reusecost(phys);
            // worth materializing if used once more (Figure 3; like
            // Volcano-SH, with the extra reuse term that keeps the test
            // consistent with the bestcost bookkeeping)
            if cost.secs() + matc.secs() + (*cnt + 1.0) * reuse.secs() < (*cnt + 1.0) * cost.secs()
                && !n_set.contains(phys)
            {
                n_set.insert(pdag, phys);
                state.add_mat(pdag, phys, &mut stats);
            }
        }
    }

    // restore original batch order for the pseudo-root's children
    let mut children = vec![0usize; root_children.len()];
    if reversed {
        for (i, &(_, idx)) in root_children.iter().enumerate() {
            children[queries.len() - 1 - i] = idx;
        }
    } else {
        for (i, &(_, idx)) in root_children.iter().enumerate() {
            children[i] = idx;
        }
    }
    graph.set_root(pdag, root_op, children);

    // Final phase: Volcano-SH decides the real materializations on the
    // combined plan.
    let base = &state.table;
    subsumption_prepass(pdag, &mut graph, base);
    let (mat, cost) = sh_decide(pdag, &ctx.dag, &mut graph, base, &mut stats);
    let plan = graph.into_plan(pdag, &mat, cost);
    Optimized {
        plan,
        mat,
        cost,
        stats,
    }
}

/// The pseudo-root op of the physical DAG.
///
/// # Panics
///
/// Panics when the physical root has no weighted (pseudo-root) op —
/// `PhysicalDag::from_dag` always installs one.
fn pick_root_op(pdag: &PhysicalDag) -> mqo_physical::PhysOpId {
    let root = pdag.root();
    pdag.node(root)
        .ops
        .iter()
        .copied()
        .find(|&o| pdag.op(o).weights.is_some())
        .expect("physical root op exists")
}

/// All plan-node indices reachable from `start` (the query's subtree in
/// the shared graph).
fn subtree_nodes(graph: &PlanGraph, start: usize) -> Vec<usize> {
    let mut seen = vec![false; graph.nodes.len()];
    let mut stack = vec![start];
    let mut out = Vec::new();
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        out.push(i);
        stack.extend(graph.nodes[i].children.iter().copied());
    }
    out
}
