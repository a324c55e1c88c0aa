//! Exhaustive materialization-set search — the doubly-exponential
//! strategy the paper's §4 motivates against. The tests use it as a
//! reference for Greedy on inputs small enough for it to be exact.

use crate::{OptContext, OptStats, Optimized, Options, Strategy};
use mqo_dag::sharable_groups;
use mqo_physical::{CostTable, ExtractedPlan, MatSet, PhysNodeId};
use mqo_util::MqoError;

/// Maximum number of candidate nodes considered: `2^MAX_CANDIDATES`
/// subsets are enumerated.
const MAX_CANDIDATES: usize = 16;

/// Exhaustive subset search (registry name `"Exhaustive"`): enumerates
/// every subset of the sharable candidates and keeps the one with
/// minimum `bestcost(Q, S)`. It is exact only for inputs with at most
/// `MAX_CANDIDATES` = 16 candidates. Beyond that it keeps the 16 with
/// the largest degree of sharing and drops the rest, so it is no
/// oracle: on BQ2–BQ5 and CQ1–CQ5 its plan costs more than Greedy's.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl Strategy for Exhaustive {
    fn name(&self) -> &str {
        "Exhaustive"
    }

    fn search(&self, ctx: &OptContext<'_>, _options: &Options) -> Result<Optimized, MqoError> {
        let pdag = &ctx.pdag;
        let mut stats = OptStats::default();
        let mut degrees = sharable_groups(&ctx.dag);
        stats.sharable = degrees.len();
        degrees.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut candidates: Vec<PhysNodeId> = Vec::new();
        for (g, _) in degrees {
            for &v in pdag.variants(g) {
                candidates.push(v);
            }
        }
        candidates.truncate(MAX_CANDIDATES);
        stats.candidates = candidates.len();

        let mut best_mat = MatSet::new();
        let mut best_table = CostTable::compute(pdag, &best_mat);
        let mut best_cost = best_table.total(pdag, &best_mat);
        for mask in 1u64..(1u64 << candidates.len()) {
            let mut mat = MatSet::new();
            for (i, &n) in candidates.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    mat.insert(pdag, n);
                }
            }
            let table = CostTable::compute(pdag, &mat);
            let cost = table.total(pdag, &mat);
            stats.benefit_recomputations += 1;
            if cost < best_cost {
                best_cost = cost;
                best_mat = mat;
                best_table = table;
            }
        }
        stats.materialized = best_mat.len();
        let plan = ExtractedPlan::extract(pdag, &best_table, &best_mat);
        Ok(Optimized {
            plan,
            mat: best_mat,
            cost: best_cost,
            stats,
        })
    }
}
