//! The open dispatch, exercised from outside `mqo-core`: a user-defined
//! toy strategy runs end-to-end through the `Optimizer` session, the
//! registry's error behaviors are pinned down, the pipeline's stages
//! compose, and the KS15 strategy (itself an out-of-core crate) is held
//! against the Exhaustive oracle.

use mqo::catalog::{Catalog, ColStats, ColType};
use mqo::core::{
    CostState, OptContext, OptStats, Optimized, Optimizer, Options, Registry, Strategy,
};
use mqo::exec::{execute_plan, generate_database, normalize_result, results_approx_equal};
use mqo::expr::{AggExpr, AggFunc, Atom, Predicate, ScalarExpr};
use mqo::ks15::Ks15Greedy;
use mqo::logical::{Batch, LogicalPlan, Query};
use mqo::physical::{ExtractedPlan, MatSet};
use mqo::util::{FxHashMap, MqoError, MqoErrorKind};
use std::sync::Arc;

/// A user-defined strategy, written against the public API only: it
/// materializes the single sharable node with the largest standalone
/// benefit (a one-step greedy), or nothing if no node pays.
struct BestSingleTemp;

impl Strategy for BestSingleTemp {
    fn name(&self) -> &str {
        "Best-Single-Temp"
    }

    fn search(&self, ctx: &OptContext<'_>, _options: &Options) -> Result<Optimized, MqoError> {
        let pdag = &ctx.pdag;
        let mut stats = OptStats::default();
        let mut state = CostState::new(pdag);
        let baseline = state.total(pdag);

        let mut best: Option<(mqo::physical::PhysNodeId, f64)> = None;
        for (g, _) in mqo::dag::sharable_groups(&ctx.dag) {
            if ctx.dag.group(g).has_param {
                continue;
            }
            for &n in pdag.variants(g) {
                stats.benefit_recomputations += 1;
                state.add_mat(pdag, n, &mut stats);
                let benefit = (baseline - state.total(pdag)).secs();
                state.remove_mat(pdag, n, &mut stats);
                if benefit > best.map(|(_, b)| b).unwrap_or(1e-9) {
                    best = Some((n, benefit));
                }
            }
        }
        if let Some((n, _)) = best {
            state.add_mat(pdag, n, &mut stats);
        }
        stats.materialized = state.mat.len();
        let cost = state.total(pdag);
        let plan = ExtractedPlan::extract(pdag, &state.table, &state.mat);
        Ok(Optimized {
            plan,
            mat: state.mat,
            cost,
            stats,
        })
    }
}

/// Two identical aggregates over an expensive join, at executable scale.
fn executable_batch() -> (Catalog, Batch) {
    let mut cat = Catalog::new();
    let a = cat
        .table("sa")
        .rows(2_000.0)
        .int_key("sak")
        .int_uniform("sav", 0, 49)
        .clustered_on_first()
        .build();
    let b = cat
        .table("sb")
        .rows(4_000.0)
        .int_key("sbk")
        .int_uniform("safk", 0, 1_999)
        .clustered_on_first()
        .build();
    let sav = cat.col("sa", "sav");
    let sbk = cat.col("sb", "sbk");
    let tot = cat.derived_column("stot", ColType::Float, ColStats::opaque(50.0));
    let jab = Predicate::atom(Atom::eq_cols(cat.col("sa", "sak"), cat.col("sb", "safk")));
    let q = LogicalPlan::scan(a)
        .join(LogicalPlan::scan(b), jab)
        .aggregate(
            vec![sav],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(sbk), tot)],
        );
    (
        cat,
        Batch::of(vec![Query::new("q1", q.clone()), Query::new("q2", q)]),
    )
}

#[test]
fn user_strategy_runs_end_to_end() {
    let (cat, batch) = executable_batch();
    let mut optimizer = Optimizer::new(&cat);
    optimizer.register(Arc::new(BestSingleTemp)).unwrap();

    let ctx = optimizer.prepare(&batch);
    let base = optimizer.search(&ctx, "Volcano").unwrap();
    let toy = optimizer.search(&ctx, "Best-Single-Temp").unwrap();

    // the toy strategy shares the duplicated aggregate
    assert_eq!(toy.stats.materialized, 1);
    assert!(
        toy.cost < base.cost,
        "toy {} vs base {}",
        toy.cost,
        base.cost
    );
    // its context-derived stats were stamped by the session
    assert!(toy.stats.dag_groups > 0);
    assert!(toy.stats.search_time_secs > 0.0);

    // and its plan EXECUTES, producing the same rows as the unshared one
    let db = generate_database(&cat, 11, usize::MAX);
    let params = FxHashMap::default();
    let unshared = execute_plan(&cat, &ctx.pdag, &base.plan, &db, &params);
    let shared = execute_plan(&cat, &ctx.pdag, &toy.plan, &db, &params);
    assert!(shared.temps_built >= 1);
    assert_eq!(unshared.results.len(), shared.results.len());
    for (x, y) in unshared.results.iter().zip(shared.results.iter()) {
        assert!(results_approx_equal(
            &normalize_result(x),
            &normalize_result(y),
            1e-9
        ));
    }
}

#[test]
fn registry_lookup_miss_is_an_error() {
    let (cat, batch) = executable_batch();
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let err = optimizer.search(&ctx, "Simulated-Annealing").unwrap_err();
    assert_eq!(err.kind, MqoErrorKind::UnknownStrategy);
    // the error formats usefully
    assert!(err.to_string().contains("Simulated-Annealing"));
}

#[test]
fn duplicate_registration_is_an_error() {
    let (cat, _) = executable_batch();
    let mut optimizer = Optimizer::new(&cat);
    optimizer.register(Arc::new(BestSingleTemp)).unwrap();
    let err = optimizer.register(Arc::new(BestSingleTemp)).unwrap_err();
    assert_eq!(err.kind, MqoErrorKind::DuplicateStrategy);
    assert_eq!(err.site, "Best-Single-Temp");
    // a clashing name against a built-in is equally rejected
    let err = optimizer
        .register(Arc::new(mqo::core::Volcano))
        .unwrap_err();
    assert_eq!(err.kind, MqoErrorKind::DuplicateStrategy);
    assert_eq!(err.site, "Volcano");
    // registry state is unchanged: built-ins + one toy
    assert_eq!(optimizer.registry().len(), Registry::builtin().len() + 1);
}

#[test]
fn staged_pipeline_stages_compose() {
    let (cat, batch) = executable_batch();
    let optimizer = Optimizer::new(&cat);

    // expand → physicalize → search, each stage fed the previous one's output
    let expanded = optimizer.expand(&batch);
    assert!(expanded.elapsed_secs > 0.0);
    let groups = expanded.dag.num_groups();
    let ctx = optimizer.physicalize(expanded);
    assert!(ctx.dag_time_secs >= 0.0);
    let staged = optimizer.search(&ctx, "Greedy").unwrap();

    // the search result carries the earlier stages' timing and sizes
    assert_eq!(
        staged.stats.dag_time_secs.to_bits(),
        ctx.dag_time_secs.to_bits()
    );
    assert_eq!(staged.stats.dag_groups, groups);
    assert!(staged.stats.materialized >= 1);
}

#[test]
fn extract_stage_rederives_the_plan_for_any_mat_set() {
    let (cat, batch) = executable_batch();
    let optimizer = Optimizer::new(&cat);
    let ctx = optimizer.prepare(&batch);
    let greedy = optimizer.search(&ctx, "Greedy").unwrap();

    // re-extracting greedy's own set reproduces its plan cost…
    let replayed = optimizer.extract(&ctx, &greedy.mat);
    assert_eq!(replayed.materialized.len(), greedy.plan.materialized.len());

    // …and the empty set yields the unshared baseline
    let unshared = optimizer.extract(&ctx, &MatSet::new());
    assert!(unshared.materialized.is_empty());
}

#[test]
fn ks15_holds_against_the_exhaustive_oracle() {
    let (cat, batch) = executable_batch();
    let mut optimizer = Optimizer::new(&cat);
    optimizer.register(Arc::new(Ks15Greedy)).unwrap();
    let ctx = optimizer.prepare(&batch);

    let oracle = optimizer.search(&ctx, "Exhaustive").unwrap();
    let greedy = optimizer.search(&ctx, "Greedy").unwrap();
    let ks15 = optimizer.search(&ctx, "KS15-Greedy").unwrap();

    // the oracle lower-bounds both heuristics…
    assert!(oracle.cost <= greedy.cost * 1.0001);
    assert!(oracle.cost <= ks15.cost * 1.0001);
    // …and both stay within 10% of it on this small batch
    assert!(greedy.cost.secs() <= oracle.cost.secs() * 1.10);
    assert!(ks15.cost.secs() <= oracle.cost.secs() * 1.10);
    // KS15 shares something here, like greedy does
    assert!(ks15.stats.materialized >= 1);
}

#[test]
fn option_builders_compose() {
    let options = Options::new()
        .with_params(mqo::cost::CostParams::with_memory_mb(32))
        .with_greedy(
            mqo::core::GreedyOptions::new()
                .with_monotonicity(false)
                .with_sorted_candidates(false)
                .with_space_budget_blocks(Some(1_000.0)),
        );
    assert_eq!(options.params.mem_bytes, 32 * 1024 * 1024);
    assert!(!options.greedy.use_monotonicity);
    assert!(options.greedy.use_incremental);
    assert!(!options.greedy.sorted_candidates);
    assert_eq!(options.greedy.space_budget_blocks, Some(1_000.0));

    // builder-configured options drive the session like field-built ones
    let (cat, batch) = executable_batch();
    let optimizer = Optimizer::with_options(&cat, options);
    let ctx = optimizer.prepare(&batch);
    let g = optimizer.search(&ctx, "Greedy").unwrap();
    assert!(g.cost.is_finite());
}
