//! The plain Volcano baseline: best plan per query, nothing shared.

use crate::{OptContext, OptStats, Optimized, Options, Strategy};
use mqo_physical::{CostTable, ExtractedPlan, MatSet};
use mqo_util::MqoError;

/// The baseline strategy (registry name `"Volcano"`): optimizes each
/// query independently. Because the charged cost of a shared node
/// without materialization is its full recomputation cost at every use,
/// the root cost under an empty materialized set is exactly the sum of
/// the individual best-plan costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Volcano;

impl Strategy for Volcano {
    fn name(&self) -> &str {
        "Volcano"
    }

    fn search(&self, ctx: &OptContext<'_>, _options: &Options) -> Result<Optimized, MqoError> {
        let mat = MatSet::new();
        let table = CostTable::compute(&ctx.pdag, &mat);
        let plan = ExtractedPlan::extract(&ctx.pdag, &table, &mat);
        let cost = table.total(&ctx.pdag, &mat);
        Ok(Optimized {
            plan,
            mat,
            cost,
            stats: OptStats::default(),
        })
    }
}
