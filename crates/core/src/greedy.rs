//! The greedy algorithm (paper §4, Figure 4) with its three novel
//! optimizations: sharability pre-filtering (§4.1), incremental cost
//! update (§4.2/Figure 5, see [`crate::CostState`]), and the
//! monotonicity heuristic (§4.3).
//!
//! The search runs on one thread. Nearly all of its time goes into
//! *probing* — the benefit of one candidate on top of the current
//! materialized set — and the §4 optimizations are what keep probes few
//! (pre-filtering, the §4.3 heap) and cheap (the incremental update).
//! A probe is [`CostState::probe`]: the candidate's addition propagates
//! once with its writes logged, and the log is restored instead of
//! propagating the removal, so undoing a probe re-evaluates nothing.
//! Only a commit ([`CostState::add_mat`]) changes the state for good.

use crate::state::CostState;
use crate::{deadline_expired, OptContext, OptStats, Optimized, Options, Strategy};
use mqo_chaos::Seam;
use mqo_cost::Cost;
use mqo_dag::sharable_groups;
use mqo_physical::{ExtractedPlan, PhysNodeId, PhysicalDag};
use mqo_util::MqoError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The greedy strategy (registry name `"Greedy"`): iteratively
/// materialize the candidate node with the largest benefit until no
/// candidate improves the plan. Its ablation switches come from
/// [`Options::greedy`]. An expired [`Options::deadline`] ends the search
/// early with the best-so-far set and [`OptStats::degraded`] set — not
/// an error; the only errors are injected faults (`mqo-chaos` seams
/// `cost-propagation`, `extract`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

/// Ablation switches for the greedy algorithm (§6.3 experiments).
#[derive(Debug, Clone, Copy)]
#[must_use = "GreedyOptions is a builder: chain `with_*` calls and install it via Options"]
pub struct GreedyOptions {
    /// Initialize the candidate set with sharable nodes only (§4.1). When
    /// off, every non-root, non-parameterized node is a candidate.
    pub use_sharability: bool,
    /// Maintain benefit upper bounds in a heap and re-evaluate lazily
    /// (§4.3). When off, every remaining candidate's benefit is recomputed
    /// in every iteration.
    pub use_monotonicity: bool,
    /// Update costs incrementally on materialized-set changes (§4.2,
    /// Figure 5). When off, each benefit computation recomputes the whole
    /// cost table.
    pub use_incremental: bool,
    /// Offer sorted variants (temp indexes) as materialization candidates
    /// in addition to unordered results (§5's index extension).
    pub sorted_candidates: bool,
    /// Temporary-storage budget in blocks (paper §8 future work): when
    /// set, candidates are ranked by benefit *per unit space* and
    /// materialization stops once the budget is exhausted. Temp space is
    /// charged in whole blocks (a sub-block result still occupies one).
    pub space_budget_blocks: Option<f64>,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        Self {
            use_sharability: true,
            use_monotonicity: true,
            use_incremental: true,
            sorted_candidates: true,
            space_budget_blocks: None,
        }
    }
}

impl GreedyOptions {
    /// Paper-default switches (everything on, no space budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggles the sharability pre-filter (§4.1).
    pub fn with_sharability(mut self, on: bool) -> Self {
        self.use_sharability = on;
        self
    }

    /// Toggles the monotonicity heuristic (§4.3).
    pub fn with_monotonicity(mut self, on: bool) -> Self {
        self.use_monotonicity = on;
        self
    }

    /// Toggles the incremental cost update (§4.2, Figure 5).
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.use_incremental = on;
        self
    }

    /// Toggles sorted variants as materialization candidates (§5).
    pub fn with_sorted_candidates(mut self, on: bool) -> Self {
        self.sorted_candidates = on;
        self
    }

    /// Sets the temporary-storage budget in blocks (§8 future work).
    pub fn with_space_budget_blocks(mut self, blocks: Option<f64>) -> Self {
        self.space_budget_blocks = blocks;
        self
    }
}

/// Benefits below this are treated as zero.
const EPS: f64 = 1e-9;

/// Heap entry ordered by benefit upper bound.
#[derive(Debug)]
struct HeapEntry {
    bound: f64,
    node: PhysNodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp keeps the order total even for NaN bounds (a NaN cost
        // can reach the heap through degenerate statistics); the old
        // partial_cmp fallback made NaN compare Equal to everything,
        // breaking BinaryHeap's invariants.
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Benefit of materializing `x` on top of `state` (restores the state
/// before returning).
fn probe_on(
    pdag: &PhysicalDag,
    state: &mut CostState,
    stats: &mut OptStats,
    cur_total: Cost,
    x: PhysNodeId,
    incremental: bool,
) -> f64 {
    stats.benefit_recomputations += 1;
    if incremental {
        (cur_total - state.probe(pdag, x, stats)).secs()
    } else {
        state.mat.insert(pdag, x);
        state.recompute_full(pdag);
        let t = state.total(pdag);
        state.mat.remove(pdag, x);
        state.recompute_full(pdag);
        (cur_total - t).secs()
    }
}

/// Commits `x` into `state`.
fn commit_on(
    pdag: &PhysicalDag,
    state: &mut CostState,
    stats: &mut OptStats,
    x: PhysNodeId,
    incremental: bool,
) {
    if incremental {
        state.add_mat(pdag, x, stats);
    } else {
        state.mat.insert(pdag, x);
        state.recompute_full(pdag);
    }
}

/// Builds the candidate pool: `(physical node, degree of sharing)` pairs,
/// in topological group order, variants in `pdag` order. Warm nodes are
/// already materialized — a given, not a candidate — so they are left
/// out, and the `candidates` counter is the pool Greedy actually probes.
/// Also records the `sharable` counter.
fn collect_candidates(
    ctx: &OptContext<'_>,
    opts: GreedyOptions,
    stats: &mut OptStats,
) -> Vec<(PhysNodeId, f64)> {
    let pdag = &ctx.pdag;
    let degrees: Vec<(mqo_dag::GroupId, f64)> = if opts.use_sharability {
        let d = sharable_groups(&ctx.dag);
        stats.sharable = d.len();
        d
    } else {
        // Ablation: probe every non-root, non-parameterized node. The
        // degree map still yields the honest §4.1 sharability count for
        // the stats (the pool itself is the point of the ablation).
        let all = mqo_dag::degree_of_sharing(&ctx.dag);
        stats.sharable = all
            .iter()
            .filter(|&(&g, &d)| g != ctx.dag.root() && d > 1.0 + EPS && !ctx.dag.group(g).has_param)
            .count();
        ctx.dag
            .topo_order()
            .iter()
            .copied()
            .filter(|&g| g != ctx.dag.root() && !ctx.dag.group(g).has_param)
            .map(|g| (g, all.get(&g).copied().unwrap_or(1.0).max(1.0)))
            .collect()
    };

    let mut candidates: Vec<(PhysNodeId, f64)> = Vec::new();
    for &(g, d) in &degrees {
        for &v in pdag.variants(g) {
            if ctx.warm.contains(v)
                || (!opts.sorted_candidates
                    && !matches!(pdag.node(v).prop, mqo_physical::PhysProp::Any))
            {
                continue;
            }
            candidates.push((v, d));
        }
    }
    stats.candidates = candidates.len();
    candidates
}

/// Temp storage is allocated in whole blocks: a sub-block result still
/// occupies one. Ranking (`score`) and admission (`fits`) both charge
/// this rounded footprint — charging raw blocks on admission while
/// ranking per rounded block let sub-block nodes be ranked as a full
/// block yet admitted at their true size.
fn charged_blocks(pdag: &PhysicalDag, n: PhysNodeId) -> f64 {
    pdag.node(n).blocks.max(1.0)
}

impl Strategy for Greedy {
    fn name(&self) -> &str {
        "Greedy"
    }

    /// The greedy heuristic (§4), with the monotonicity heuristic's lazy
    /// benefit re-evaluation (§4.3) when `options.greedy` enables it.
    ///
    /// # Panics
    ///
    /// Panics when a candidate names a node outside `ctx.pdag`'s cost
    /// table; candidates are drawn from `ctx.pdag` itself, so only an
    /// inconsistent context can.
    fn search(&self, ctx: &OptContext<'_>, options: &Options) -> Result<Optimized, MqoError> {
        let opts = options.greedy;
        let pdag = &ctx.pdag;
        let mut stats = OptStats::default();
        let candidates = collect_candidates(ctx, opts, &mut stats);
        // The starting cost table: warm temps pre-materialized.
        let mut state = CostState::seeded(pdag, &ctx.warm);
        let mut cur_total = state.total(pdag);
        let mut space_used = 0.0f64;
        // score used for ranking: plain benefit, or benefit per (charged)
        // block under a space budget (§8)
        let score = |benefit: f64, n: PhysNodeId| -> f64 {
            match opts.space_budget_blocks {
                Some(_) => benefit / charged_blocks(pdag, n),
                None => benefit,
            }
        };
        let fits = |space_used: f64, n: PhysNodeId| -> bool {
            match opts.space_budget_blocks {
                Some(b) => space_used + charged_blocks(pdag, n) <= b + EPS,
                None => true,
            }
        };

        if opts.use_monotonicity {
            // ---- Monotonicity heuristic (§4.3): lazy benefit re-evaluation.
            // Initial upper bound: cost of the node (no materializations)
            // times its maximum degree of sharing.
            let mut heap: BinaryHeap<HeapEntry> = candidates
                .iter()
                .filter(|&&(n, _)| fits(space_used, n))
                .map(|&(n, d)| HeapEntry {
                    bound: score(state.table.node_cost[n.index()].secs() * d, n),
                    node: n,
                })
                .collect();
            while let Some(top) = heap.pop() {
                if deadline_expired(options.deadline) {
                    stats.degraded = true;
                    break; // anytime search: keep the set committed so far
                }
                mqo_chaos::hit(Seam::CostPropagation)?;
                if top.bound.is_nan() {
                    continue; // degenerate bound: discard the candidate
                }
                if top.bound <= EPS {
                    break;
                }
                if !fits(space_used, top.node) {
                    continue; // budget exhausted for this candidate: drop it
                }
                let b = score(
                    probe_on(
                        pdag,
                        &mut state,
                        &mut stats,
                        cur_total,
                        top.node,
                        opts.use_incremental,
                    ),
                    top.node,
                );
                let next_bound = heap.peek().map(|e| e.bound).unwrap_or(f64::NEG_INFINITY);
                if b >= next_bound - 1e-12 {
                    // fresh benefit still on top: this is the true argmax
                    if b > EPS {
                        commit_on(pdag, &mut state, &mut stats, top.node, opts.use_incremental);
                        space_used += charged_blocks(pdag, top.node);
                        cur_total = state.total(pdag);
                    } else {
                        break; // best possible benefit is non-positive: stop
                    }
                } else {
                    // re-insert with the fresh (tighter) bound
                    heap.push(HeapEntry {
                        bound: b,
                        node: top.node,
                    });
                }
            }
        } else {
            // ---- Plain greedy loop: recompute every candidate's benefit per
            // round (the §6.3 ablation baseline).
            let mut remaining = candidates;
            loop {
                if deadline_expired(options.deadline) {
                    stats.degraded = true;
                    break;
                }
                mqo_chaos::hit(Seam::CostPropagation)?;
                let mut best: Option<(usize, f64)> = None;
                for (i, &(n, _)) in remaining.iter().enumerate() {
                    if !fits(space_used, n) {
                        continue;
                    }
                    let b = score(
                        probe_on(
                            pdag,
                            &mut state,
                            &mut stats,
                            cur_total,
                            n,
                            opts.use_incremental,
                        ),
                        n,
                    );
                    if b > best.map(|(_, bb)| bb).unwrap_or(0.0) {
                        best = Some((i, b));
                    }
                }
                match best {
                    Some((i, b)) if b > EPS => {
                        let (n, _) = remaining.swap_remove(i);
                        commit_on(pdag, &mut state, &mut stats, n, opts.use_incremental);
                        space_used += charged_blocks(pdag, n);
                        cur_total = state.total(pdag);
                    }
                    _ => break,
                }
            }
        }

        finish(ctx, state, stats)
    }
}

/// Extracts the final plan from the converged state.
fn finish(
    ctx: &OptContext<'_>,
    state: CostState,
    mut stats: OptStats,
) -> Result<Optimized, MqoError> {
    mqo_chaos::hit(Seam::Extract)?;
    let pdag = &ctx.pdag;
    stats.materialized = state.mat.len() - state.warm.len();
    let plan = ExtractedPlan::extract_with_warm(pdag, &state.table, &state.mat, &state.warm);
    stats.warm_reused = plan.warm_used.len();
    let cost = state.total(pdag);
    Ok(Optimized {
        plan,
        mat: state.mat,
        cost,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(bounds: &[f64]) -> Vec<HeapEntry> {
        bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| HeapEntry {
                bound: b,
                node: PhysNodeId::from_index(i),
            })
            .collect()
    }

    /// Regression for the NaN heap-ordering bug: a NaN-cost candidate
    /// used to compare Equal to everything (`partial_cmp` fallback),
    /// violating `Ord`'s contract and corrupting `BinaryHeap` order.
    /// With `total_cmp`, the order is total: every entry pops exactly
    /// once, in the `total_cmp`-descending order.
    #[test]
    fn heap_order_is_total_with_nan_bounds() {
        let bounds = [3.0, f64::NAN, 1.0, f64::INFINITY, -2.0, f64::NAN, 0.0, -0.0];
        let mut heap: BinaryHeap<HeapEntry> = entries(&bounds).into_iter().collect();
        let mut popped: Vec<(f64, PhysNodeId)> = Vec::new();
        while let Some(e) = heap.pop() {
            popped.push((e.bound, e.node));
        }
        assert_eq!(popped.len(), bounds.len(), "every candidate pops once");
        let mut expect: Vec<(f64, PhysNodeId)> = bounds
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, PhysNodeId::from_index(i)))
            .collect();
        expect.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
        for (got, want) in popped.iter().zip(&expect) {
            assert_eq!(got.0.total_cmp(&want.0), Ordering::Equal);
            assert_eq!(got.1, want.1);
        }
    }

    /// Replays the §4.3 pop/probe/reinsert loop (exactly the rules of
    /// the real loop: NaN bounds are discarded on pop, non-positive
    /// bounds end the search) with a candidate whose probe yields NaN.
    /// The loop must terminate and still commit the genuine candidates
    /// in benefit order — under the old `partial_cmp` ordering the NaN
    /// entry corrupted the heap; under plain `total_cmp` without the
    /// discard rule it livelocked (NaN sorts above +inf, and
    /// `bound <= EPS` is false for NaN, so it re-entered forever).
    fn drive_heap_loop(initial: &[f64], fresh: &[f64]) -> Vec<PhysNodeId> {
        let mut heap: BinaryHeap<HeapEntry> = entries(initial).into_iter().collect();
        let mut committed = Vec::new();
        let mut pops = 0;
        while let Some(top) = heap.pop() {
            pops += 1;
            assert!(pops < 100, "heap loop failed to terminate");
            if top.bound.is_nan() {
                continue;
            }
            if top.bound <= EPS {
                break;
            }
            let b = fresh[top.node.index()];
            let next = heap.peek().map(|e| e.bound).unwrap_or(f64::NEG_INFINITY);
            if b >= next - 1e-12 {
                if b > EPS {
                    committed.push(top.node);
                } else {
                    break;
                }
            } else {
                heap.push(HeapEntry {
                    bound: b,
                    node: top.node,
                });
            }
        }
        committed
    }

    #[test]
    fn nan_candidate_does_not_derail_the_heap_loop() {
        // node 0 probes to NaN, node 1 to 5.0, node 2 to 1.0
        let fresh = [f64::NAN, 5.0, 1.0];
        let n = |i: usize| PhysNodeId::from_index(i);
        // NaN arrives as an *initial bound*: discarded on first pop (it
        // sorts above +inf under total_cmp), the rest proceed normally.
        assert_eq!(
            drive_heap_loop(&[f64::NAN, 10.0, 8.0], &fresh),
            vec![n(1), n(2)]
        );
        // NaN arrives via a *probe* of a finite stale bound: the entry
        // re-enters with a NaN bound and is retired on its next pop.
        assert_eq!(drive_heap_loop(&[9.0, 10.0, 8.0], &fresh), vec![n(1), n(2)]);
    }

    /// `PartialEq` must agree with `Ord` — in particular for NaN (where
    /// `==` on f64 disagrees with `total_cmp`) and for `0.0`/`-0.0`
    /// (where it disagrees the other way).
    #[test]
    fn heap_entry_eq_is_consistent_with_ord() {
        let nan_a = HeapEntry {
            bound: f64::NAN,
            node: PhysNodeId::from_index(0),
        };
        let nan_b = HeapEntry {
            bound: f64::NAN,
            node: PhysNodeId::from_index(0),
        };
        assert_eq!(nan_a, nan_b);
        let pos = HeapEntry {
            bound: 0.0,
            node: PhysNodeId::from_index(0),
        };
        let neg = HeapEntry {
            bound: -0.0,
            node: PhysNodeId::from_index(0),
        };
        assert_ne!(pos, neg);
        assert_eq!(pos.cmp(&neg), Ordering::Greater);
    }
}
