//! The KS15 greedy variant — Kathuria & Sudarshan, *"Efficient and
//! Provable Multi-Query Optimization"* (arXiv:1512.02568) — implemented
//! **entirely against `mqo-core`'s public API** as a [`Strategy`]. No
//! enum variant, no `match` arm, no edit inside the core crate: this
//! crate is the existence proof for the open registry dispatch.
//!
//! # The algorithm
//!
//! Roy et al.'s greedy (SIGMOD 2000, Figure 4) adds one node at a time
//! by largest marginal benefit and never reconsiders a decision. KS15
//! observes that the materialized-set benefit function
//! `f(S) = bestcost(Q, ∅) − bestcost(Q, S)` behaves like an
//! (in general non-monotone) submodular set function — materializing
//! more can *hurt*, because every member pays its own materialization
//! cost — and brings the machinery of provable submodular maximization
//! to MQO. The workhorse is the deterministic **bi-directional ("double")
//! greedy** of Buchbinder, Feldman, Naor & Schwartz, which carries a
//! constant-factor guarantee for non-negative submodular objectives:
//!
//! 1. Start from two states: `X = ∅` and `Y =` all candidates.
//! 2. Visit each candidate `u` once (here: in decreasing degree of
//!    sharing). Compare the gain `a = f(X ∪ u) − f(X)` of *committing*
//!    `u` against the gain `b = f(Y \ u) − f(Y)` of *discarding* it.
//! 3. If `a ≥ b`, add `u` to `X`; otherwise remove `u` from `Y`. After
//!    the last candidate, `X = Y` is the answer.
//!
//! Unlike the one-directional greedy, every candidate's fate is decided
//! while seeing both a lower envelope (`X`, what is surely kept) and an
//! upper envelope (`Y`, what might still be kept) of the final set —
//! this is what protects it from the tunnel vision that makes plain
//! greedy arbitrarily bad on adversarial DAGs.
//!
//! Two pieces of MQO-specific housekeeping follow the sweep, in the
//! spirit of KS15's pruning discussion: a **descent pass** repeatedly
//! drops the member whose removal lowers the total cost the most (the
//! double greedy decides each element once, so late removals can expose
//! earlier ones as deadweight), and a **Volcano floor** falls back to
//! the empty set if the chosen set somehow costs more than no sharing at
//! all (the theoretical guarantee assumes non-negative `f`; real cost
//! models owe nobody non-negativity).
//!
//! Both sides of the sweep reuse the paper's own §4.2 incremental cost
//! propagation ([`CostState`]), so a probe costs an incremental update,
//! not a full cost-table recomputation — the "efficient" half of the
//! title. `benefit_recomputations` and `cost_propagations` are counted
//! exactly like the built-in greedy's, so Figure-10-style comparisons
//! hold across the two.
//!
//! The descent pass re-probes every member per round with
//! [`CostState::removal_gains`], in place and in node-id order, and
//! breaks argmax ties by node id, so the chosen set is deterministic.

use mqo_chaos::Seam;
use mqo_core::{deadline_expired, CostState, OptContext, OptStats, Optimized, Options, Strategy};
use mqo_dag::sharable_groups;
use mqo_physical::{ExtractedPlan, PhysNodeId};
use mqo_util::MqoError;

/// Benefits below this are treated as zero (matches `mqo-core`'s greedy).
const EPS: f64 = 1e-9;

/// The KS15 bi-directional greedy strategy (registry name
/// `"KS15-Greedy"`).
///
/// Register it with an [`mqo_core::Optimizer`] session:
///
/// ```
/// use mqo_core::Optimizer;
/// use mqo_ks15::Ks15Greedy;
/// use std::sync::Arc;
///
/// let cat = mqo_catalog::Catalog::new();
/// let mut optimizer = Optimizer::new(&cat);
/// optimizer.register(Arc::new(Ks15Greedy::default())).unwrap();
/// assert!(optimizer.registry().get("KS15-Greedy").is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Ks15Greedy;

impl Strategy for Ks15Greedy {
    fn name(&self) -> &str {
        "KS15-Greedy"
    }

    fn search(&self, ctx: &OptContext<'_>, options: &Options) -> Result<Optimized, MqoError> {
        let pdag = &ctx.pdag;
        let mut stats = OptStats::default();

        // Candidate pool: every physical variant of every sharable,
        // non-parameterized group (`sharable_groups` already excludes
        // parameterized groups — §4.1 pre-filter, which KS15 inherits),
        // visited in decreasing degree of sharing.
        let mut degrees = sharable_groups(&ctx.dag);
        degrees.sort_by(|a, b| b.1.total_cmp(&a.1));
        // `sharable` counts equivalence groups (as the built-in greedy
        // does), keeping the counter comparable across strategies; the
        // candidate pool below is larger — one entry per physical variant.
        stats.sharable = degrees.len();
        let mut candidates: Vec<PhysNodeId> = Vec::new();
        for &(g, _) in &degrees {
            candidates.extend(pdag.variants(g).iter().copied());
        }
        // Warm temps from an earlier batch are a given, not a decision.
        candidates.retain(|&n| !ctx.warm.contains(n));
        stats.candidates = candidates.len();

        // X starts from the warm cache (empty outside a session), Y adds
        // every candidate on top of it.
        let floor = CostState::seeded(pdag, &ctx.warm);
        let mut x = floor.clone();
        let baseline = x.total(pdag);
        let mut y = x.clone();
        for &n in &candidates {
            y.add_mat(pdag, n, &mut stats);
        }

        // The bi-directional sweep: each candidate is either committed
        // into X or discarded from Y, whichever gains more.
        for &n in &candidates {
            if deadline_expired(options.deadline) {
                // Anytime degradation: X holds every decision made so
                // far; undecided candidates default to "not chosen",
                // which is always a valid materialized set.
                stats.degraded = true;
                break;
            }
            mqo_chaos::hit(Seam::CostPropagation)?;
            stats.benefit_recomputations += 1;
            let x_before = x.total(pdag);
            x.add_mat(pdag, n, &mut stats);
            let commit_gain = (x_before - x.total(pdag)).secs();

            stats.benefit_recomputations += 1;
            let y_before = y.total(pdag);
            y.remove_mat(pdag, n, &mut stats);
            let discard_gain = (y_before - y.total(pdag)).secs();

            if commit_gain >= discard_gain {
                y.add_mat(pdag, n, &mut stats); // keep n on both sides
            } else {
                x.remove_mat(pdag, n, &mut stats); // drop n on both sides
            }
        }

        // Descent pass: steepest single-removal descent. Each round
        // probes every member's removal gain under the current state,
        // then drops the best improving member; node-id order fixes both
        // the probe order and the argmax tie-break.
        loop {
            if deadline_expired(options.deadline) {
                stats.degraded = true;
                break; // descent only improves; the current X is valid
            }
            // Only this batch's own choices are up for removal — warm
            // temps exist whether or not this plan reads them.
            let mut members: Vec<PhysNodeId> =
                x.mat.iter().filter(|&n| !x.warm.contains(n)).collect();
            if members.is_empty() {
                break;
            }
            members.sort();
            mqo_chaos::hit(Seam::CostPropagation)?;
            let gains = x.removal_gains(pdag, &members, &mut stats);
            let mut best: Option<(PhysNodeId, f64)> = None;
            for (k, &n) in members.iter().enumerate() {
                if gains[k] > EPS && gains[k] > best.map(|(_, g)| g).unwrap_or(EPS) {
                    best = Some((n, gains[k]));
                }
            }
            match best {
                Some((n, _)) => x.remove_mat(pdag, n, &mut stats),
                None => break,
            }
        }

        // Volcano floor: never worse than materializing nothing new.
        if x.total(pdag) > baseline {
            x = floor;
        }

        mqo_chaos::hit(Seam::Extract)?;
        stats.materialized = x.mat.len() - x.warm.len();
        let cost = x.total(pdag);
        let plan = ExtractedPlan::extract_with_warm(pdag, &x.table, &x.mat, &x.warm);
        stats.warm_reused = plan.warm_used.len();
        Ok(Optimized {
            plan,
            mat: x.mat,
            cost,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::{Catalog, ColStats, ColType};
    use mqo_core::Optimizer;
    use mqo_expr::{AggExpr, AggFunc, Atom, Predicate, ScalarExpr};
    use mqo_logical::{Batch, LogicalPlan, Query};
    use std::sync::Arc;
    use std::time::Instant;

    /// Two identical expensive aggregates — the canonical sharing win.
    fn shared_aggregate() -> (Catalog, Batch) {
        let mut cat = Catalog::new();
        let a = cat
            .table("ka")
            .rows(150_000.0)
            .int_key("kak")
            .int_uniform("kav", 0, 499)
            .clustered_on_first()
            .build();
        let b = cat
            .table("kb")
            .rows(300_000.0)
            .int_key("kbk")
            .int_uniform("kafk", 0, 149_999)
            .clustered_on_first()
            .build();
        let kav = cat.col("ka", "kav");
        let kbk = cat.col("kb", "kbk");
        let tot = cat.derived_column("ktot", ColType::Float, ColStats::opaque(500.0));
        let jab = Predicate::atom(Atom::eq_cols(cat.col("ka", "kak"), cat.col("kb", "kafk")));
        let q = LogicalPlan::scan(a)
            .join(LogicalPlan::scan(b), jab)
            .aggregate(
                vec![kav],
                vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(kbk), tot)],
            );
        (
            cat,
            Batch::of(vec![Query::new("q1", q.clone()), Query::new("q2", q)]),
        )
    }

    #[test]
    fn ks15_shares_and_never_loses_to_volcano() {
        let (cat, batch) = shared_aggregate();
        let mut optimizer = Optimizer::new(&cat);
        optimizer.register(Arc::new(Ks15Greedy)).unwrap();
        let ctx = optimizer.prepare(&batch);
        let base = optimizer.search(&ctx, "Volcano").unwrap();
        let ks = optimizer.search(&ctx, "KS15-Greedy").unwrap();
        assert!(ks.stats.materialized >= 1, "KS15 materialized nothing");
        assert!(
            ks.cost.secs() < base.cost.secs() * 0.75,
            "KS15 {} vs Volcano {}",
            ks.cost,
            base.cost
        );
    }

    #[test]
    fn ks15_matches_exhaustive_on_small_input() {
        let (cat, batch) = shared_aggregate();
        let mut optimizer = Optimizer::new(&cat);
        optimizer.register(Arc::new(Ks15Greedy)).unwrap();
        let ctx = optimizer.prepare(&batch);
        let oracle = optimizer.search(&ctx, "Exhaustive").unwrap();
        let ks = optimizer.search(&ctx, "KS15-Greedy").unwrap();
        assert!(oracle.cost <= ks.cost * 1.0001, "oracle beaten?");
        assert!(
            ks.cost.secs() <= oracle.cost.secs() * 1.10,
            "KS15 {} strays >10% from exhaustive {}",
            ks.cost,
            oracle.cost
        );
    }

    #[test]
    fn ks15_populates_counters() {
        let (cat, batch) = shared_aggregate();
        let mut optimizer = Optimizer::new(&cat);
        optimizer.register(Arc::new(Ks15Greedy)).unwrap();
        let ctx = optimizer.prepare(&batch);
        let ks = optimizer.search(&ctx, "KS15-Greedy").unwrap();
        assert!(ks.stats.sharable > 0);
        assert!(ks.stats.benefit_recomputations > 0);
        assert!(ks.stats.cost_propagations > 0);
        assert!(ks.stats.search_time_secs > 0.0);
        assert!(ks.stats.dag_time_secs > 0.0);
    }

    /// Both anytime strategies read only `Options::deadline`: an expired
    /// one degrades each search to a valid best-so-far plan, and `None`
    /// degrades neither.
    #[test]
    fn expired_deadline_degrades_every_anytime_strategy() {
        let (cat, batch) = shared_aggregate();
        for (deadline, degraded) in [(Some(Instant::now()), true), (None, false)] {
            let mut optimizer =
                Optimizer::with_options(&cat, Options::new().with_deadline(deadline));
            optimizer.register(Arc::new(Ks15Greedy)).unwrap();
            let ctx = optimizer.prepare(&batch);
            for name in ["Greedy", "KS15-Greedy"] {
                let r = optimizer.search(&ctx, name).unwrap();
                assert_eq!(r.stats.degraded, degraded, "{name} with {deadline:?}");
                assert!(r.cost.is_finite(), "{name}: {}", r.cost);
            }
        }
    }

    /// Regression for the NaN candidate-ordering bug: the decreasing
    /// degree-of-sharing sort in [`Ks15Greedy::search`] used to force
    /// `partial_cmp` with an `Equal` fallback, so a NaN degree (an
    /// upstream estimator bug) compared Equal to everything and made the
    /// visit order — and therefore the chosen set — depend on the
    /// sort algorithm's internals. The comparator is pinned here:
    /// descending `total_cmp`, NaN sorted first (above `+inf`), a total
    /// order on every input.
    #[test]
    fn degree_sort_is_total_with_nan() {
        let mut degrees: Vec<(usize, f64)> = vec![
            (0, 3.0),
            (1, f64::NAN),
            (2, 1.0),
            (3, f64::INFINITY),
            (4, -2.0),
        ];
        // the exact comparator from `search` (and core's exhaustive)
        degrees.sort_by(|a, b| b.1.total_cmp(&a.1));
        let order: Vec<usize> = degrees.iter().map(|&(g, _)| g).collect();
        assert_eq!(order, [1, 3, 0, 2, 4]);
        for w in degrees.windows(2) {
            assert_ne!(
                w[0].1.total_cmp(&w[1].1),
                std::cmp::Ordering::Less,
                "sorted output violates the comparator"
            );
        }
    }
}
