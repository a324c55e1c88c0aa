//! The [`Optimizer`] session: catalog + options + strategy registry, with
//! the pipeline exposed in stages.
//!
//! ```text
//!   expand(batch)      → Expanded      logical AND-OR DAG
//!   physicalize(exp)   → OptContext    physical DAG over the logical one
//!   search(ctx, name)  → Optimized     one registered strategy's answer
//!   extract(ctx, mat)  → ExtractedPlan re-derive a plan for any MatSet
//! ```
//!
//! The point of staging is *reuse*: expanding the DAG is the shared,
//! strategy-independent part of the pipeline, so one [`OptContext`] can
//! be searched by every strategy in turn — the figure binaries build each
//! batch's DAG once instead of once per algorithm — and the stages can be
//! timed separately ([`OptStats::dag_time_secs`] vs
//! [`OptStats::search_time_secs`]).
//!
//! This is the documented **single-batch** API: nothing survives from
//! one batch to the next. Long-lived serving — repeated
//! optimize-and-execute calls with a persistent cross-batch
//! materialized-view cache — lives one layer up in `mqo-session`'s
//! `MqoSession`, which drives this staged pipeline internally and seeds
//! [`OptContext::warm`] between batches.
//!
//! [`OptStats::dag_time_secs`]: crate::OptStats::dag_time_secs
//! [`OptStats::search_time_secs`]: crate::OptStats::search_time_secs

use crate::{OptContext, Optimized, Options, Registry, Strategy};
use mqo_catalog::Catalog;
use mqo_dag::Dag;
use mqo_logical::Batch;
use mqo_physical::{CostTable, ExtractedPlan, MatSet, PhysicalDag};
use mqo_util::{ErrorStage, MqoError, MqoErrorKind};
use std::sync::Arc;
use std::time::Instant;

/// The output of the expansion stage: the logical AND-OR DAG, before
/// physical refinement.
pub struct Expanded {
    /// The expanded logical DAG.
    pub dag: Dag,
    /// Wall-clock time spent expanding, in seconds.
    pub elapsed_secs: f64,
}

/// An optimization session: owns the catalog reference, the tuning
/// [`Options`], and the [`Registry`] of strategies.
///
/// ```
/// use mqo_catalog::Catalog;
/// use mqo_core::Optimizer;
/// use mqo_expr::{Atom, Predicate};
/// use mqo_logical::{Batch, LogicalPlan, Query};
///
/// let mut cat = Catalog::new();
/// let a = cat.table("a").rows(10_000.0).int_key("ak").build();
/// let b = cat.table("b").rows(20_000.0).int_key("bk")
///     .int_uniform("afk", 0, 9_999).build();
/// let pred = Predicate::atom(Atom::eq_cols(cat.col("a", "ak"), cat.col("b", "afk")));
/// let q = LogicalPlan::scan(a).join(LogicalPlan::scan(b), pred);
/// let batch = Batch::of(vec![
///     Query::new("q1", q.clone()),
///     Query::new("q2", q),
/// ]);
///
/// let optimizer = Optimizer::new(&cat);
/// let ctx = optimizer.prepare(&batch); // expand + physicalize ONCE
/// let base = optimizer.search(&ctx, "Volcano").unwrap();
/// let opt = optimizer.search(&ctx, "Greedy").unwrap(); // same DAG reused
/// assert!(opt.cost <= base.cost);
/// ```
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    options: Options,
    registry: Registry,
}

impl<'a> Optimizer<'a> {
    /// A session with paper-default options and the built-in strategies.
    #[must_use]
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_options(catalog, Options::new())
    }

    /// A session with explicit options and the built-in strategies.
    #[must_use]
    pub fn with_options(catalog: &'a Catalog, options: Options) -> Self {
        Self::with_registry(catalog, options, Registry::builtin())
    }

    /// A session over a caller-curated [`Registry`] — e.g. a trimmed set
    /// for a loop over [`Optimizer::registry`], where an expensive oracle
    /// strategy would dominate the batch.
    #[must_use]
    pub fn with_registry(catalog: &'a Catalog, options: Options, registry: Registry) -> Self {
        Optimizer {
            catalog,
            options,
            registry,
        }
    }

    /// The session's catalog.
    #[must_use]
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The session's options.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Mutable access to the options — ablation loops re-search one
    /// prepared context under varying [`GreedyOptions`](crate::GreedyOptions)
    /// (option changes apply to later `search` calls; the DAG stages
    /// depend only on `dag` and `params`, so contexts prepared earlier
    /// remain valid as long as those two are untouched).
    pub fn options_mut(&mut self) -> &mut Options {
        &mut self.options
    }

    /// The strategy registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Registers an additional strategy (the extension point).
    ///
    /// # Errors
    ///
    /// Fails with kind `DuplicateStrategy` if the name is already taken.
    pub fn register(&mut self, strategy: Arc<dyn Strategy>) -> Result<(), MqoError> {
        self.registry.register(strategy)
    }

    /// Stage 1: expands the batch into the logical AND-OR DAG.
    ///
    /// # Panics
    ///
    /// With verification enabled ([`Options::verify`]), panics with
    /// rendered diagnostics if the input batch or the expanded DAG
    /// violates an IR invariant.
    #[must_use]
    pub fn expand(&self, batch: &Batch) -> Expanded {
        mqo_verify::verify_batch(batch, self.catalog, self.options.verify)
            .assert_clean("expand (input batch)");
        let start = Instant::now();
        let dag = Dag::expand(batch, self.catalog, self.options.dag);
        let elapsed_secs = start.elapsed().as_secs_f64();
        mqo_verify::verify_dag(&dag, self.options.verify).assert_clean("expand (AND-OR DAG)");
        Expanded { dag, elapsed_secs }
    }

    /// Stage 2: refines the logical DAG into the physical DAG, yielding
    /// the context every strategy searches.
    ///
    /// # Panics
    ///
    /// With verification enabled ([`Options::verify`]), panics with
    /// rendered diagnostics if the logical DAG (checked *before* the
    /// physical build, whose panics are less informative) or the
    /// physical DAG violates an IR invariant.
    #[must_use]
    pub fn physicalize(&self, expanded: Expanded) -> OptContext<'a> {
        // `Expanded` can be handed in from outside `expand`; re-check the
        // logical DAG before `PhysicalDag::build` walks it.
        mqo_verify::verify_dag(&expanded.dag, self.options.verify)
            .assert_clean("physicalize (input DAG)");
        let start = Instant::now();
        let pdag = PhysicalDag::build(&expanded.dag, self.catalog, self.options.params);
        let elapsed = start.elapsed().as_secs_f64();
        mqo_verify::verify_pdag(&expanded.dag, &pdag, self.catalog, self.options.verify)
            .assert_clean("physicalize (physical DAG)");
        OptContext {
            catalog: self.catalog,
            dag: expanded.dag,
            pdag,
            params: self.options.params,
            dag_time_secs: expanded.elapsed_secs + elapsed,
            warm: MatSet::new(),
        }
    }

    /// Stages 1+2 in one call: expand and physicalize.
    #[must_use]
    pub fn prepare(&self, batch: &Batch) -> OptContext<'a> {
        self.physicalize(self.expand(batch))
    }

    /// Stage 3: searches a prepared context with the named registered
    /// strategy.
    ///
    /// # Errors
    ///
    /// Fails with kind `UnknownStrategy` if no strategy of that name is
    /// registered, or with whatever [`MqoError`] the strategy's own
    /// search surfaces (injected faults, invariant violations; budget
    /// expiry *degrades* instead — see [`Strategy::search`]).
    pub fn search(&self, ctx: &OptContext<'_>, strategy: &str) -> Result<Optimized, MqoError> {
        match self.registry.get(strategy) {
            Some(s) => self.search_with(ctx, s.as_ref()),
            None => Err(MqoError::new(
                MqoErrorKind::UnknownStrategy,
                ErrorStage::Search,
                strategy,
                "",
                format!("unknown strategy {strategy:?}"),
            )),
        }
    }

    /// Stage 3, with a strategy instance that need not be registered.
    /// Times the search and stamps the context-derived statistics
    /// (timings, DAG sizes) onto the result.
    ///
    /// # Errors
    ///
    /// Propagates the strategy's own search error unchanged.
    ///
    /// # Panics
    ///
    /// With verification enabled ([`Options::verify`]), panics with
    /// rendered diagnostics if the strategy's result is dishonest: plan
    /// structurally unsound, reported cost below a fresh recomputation,
    /// or (at `Full`) above the no-sharing baseline.
    pub fn search_with(
        &self,
        ctx: &OptContext<'_>,
        strategy: &dyn Strategy,
    ) -> Result<Optimized, MqoError> {
        let start = Instant::now();
        let mut result = strategy.search(ctx, &self.options)?;
        result.stats.search_time_secs = start.elapsed().as_secs_f64();
        result.stats.dag_time_secs = ctx.dag_time_secs;
        result.stats.dag_groups = ctx.dag.num_groups();
        result.stats.dag_ops = ctx.dag.num_ops();
        result.stats.phys_nodes = ctx.pdag.num_nodes();
        result.stats.phys_ops = ctx.pdag.num_ops();
        mqo_verify::verify_result(
            &ctx.dag,
            &ctx.pdag,
            &result.plan,
            &result.mat,
            &ctx.warm,
            result.cost,
            result.stats.sharable,
            self.options.verify,
        )
        .assert_clean(&format!("search ({})", strategy.name()));
        Ok(result)
    }

    /// Stage 4: re-derives the executable shared plan for an arbitrary
    /// materialized set on a prepared context. [`Optimized`] already
    /// carries the strategy's plan; this stage exists for callers that
    /// tweak the set (or transplant one) and want the matching plan.
    /// When the context carries warm nodes ([`OptContext::warm`]), `mat`
    /// should include them (as [`Optimized::mat`] does); their uses
    /// extract as seeded temp reads rather than definitions.
    ///
    /// # Panics
    ///
    /// With verification enabled ([`Options::verify`]), panics with
    /// rendered diagnostics if the extracted plan is structurally
    /// unsound or its stamped total is dishonest.
    #[must_use]
    pub fn extract(&self, ctx: &OptContext<'_>, mat: &MatSet) -> ExtractedPlan {
        let table = CostTable::compute(&ctx.pdag, mat);
        let plan = ExtractedPlan::extract_with_warm(&ctx.pdag, &table, mat, &ctx.warm);
        if self.options.verify.enabled() {
            let mut report = mqo_verify::VerifyReport::new();
            report.extend(mqo_verify::cost::check_cost_table(&ctx.pdag, &table, mat));
            report.extend(mqo_verify::extract::check_plan(
                &ctx.pdag,
                &table,
                &plan,
                mat,
                &ctx.warm,
                plan.total_cost,
            ));
            report.assert_clean("extract");
        }
        plan
    }
}
