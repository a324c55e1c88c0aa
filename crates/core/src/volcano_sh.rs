//! Volcano-SH (paper §3.2, Figure 2).

use crate::consolidated::{sh_decide, subsumption_prepass, PlanGraph};
use crate::{OptContext, OptStats, Optimized, Options, Strategy};
use mqo_physical::{CostTable, MatSet};
use mqo_util::MqoError;

/// The Volcano-SH strategy (registry name `"Volcano-SH"`): run basic
/// Volcano, consolidate the per-query best plans into one DAG-structured
/// plan, then decide bottom-up which of its nodes to materialize. The
/// subsumption pre-pass temporarily rewrites selections to derive from
/// weaker ones; the undo pass reverts rewrites whose source did not get
/// materialized.
#[derive(Debug, Clone, Copy, Default)]
pub struct VolcanoSh;

impl Strategy for VolcanoSh {
    fn name(&self) -> &str {
        "Volcano-SH"
    }

    fn search(&self, ctx: &OptContext<'_>, _options: &Options) -> Result<Optimized, MqoError> {
        let mut stats = OptStats::default();
        let empty = MatSet::new();
        let table = CostTable::compute(&ctx.pdag, &empty);
        let mut graph = PlanGraph::consolidated(&ctx.pdag, &table, &empty);
        subsumption_prepass(&ctx.pdag, &mut graph, &table);
        let (mat, cost) = sh_decide(&ctx.pdag, &ctx.dag, &mut graph, &table, &mut stats);
        stats.materialized = mat.len();
        let plan = graph.into_plan(&ctx.pdag, &mat, cost);
        Ok(Optimized {
            plan,
            mat,
            cost,
            stats,
        })
    }
}
