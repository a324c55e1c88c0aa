//! Criterion micro-benchmarks for greedy's §4 optimizations:
//! incremental cost update (Figure 5) vs full recomputation, and the
//! whole algorithm with each optimization toggled. The incremental probe
//! is [`CostState::probe`], the path Greedy's benefit computation takes.

use criterion::{criterion_group, criterion_main, Criterion};
use mqo_bench::bench_optimizer;
use mqo_core::{CostState, GreedyOptions, OptStats, Optimizer, Options};
use mqo_dag::{sharable_groups, Dag, DagConfig};
use mqo_physical::{CostTable, PhysProp, PhysicalDag};
use mqo_workloads::Scaleup;
use std::hint::black_box;

fn bench_incremental_vs_full(c: &mut Criterion) {
    let w = Scaleup::new(2_000);
    let batch = w.cq(3);
    let dag = Dag::expand(&batch, &w.catalog, DagConfig::default());
    let pdag = PhysicalDag::build(&dag, &w.catalog, mqo_cost::CostParams::default());
    let candidates: Vec<_> = sharable_groups(&dag)
        .into_iter()
        .filter_map(|(g, _)| pdag.node_for(g, &PhysProp::Any))
        .collect();
    assert!(!candidates.is_empty());

    let mut group = c.benchmark_group("incremental_update");
    group.sample_size(20);
    group.bench_function("CQ3_incremental_probe", |b| {
        let mut state = CostState::new(&pdag);
        let mut stats = OptStats::default();
        b.iter(|| {
            for &n in &candidates {
                black_box(state.probe(&pdag, n, &mut stats));
            }
        });
    });
    group.bench_function("CQ3_full_recompute_probe", |b| {
        let mut state = CostState::new(&pdag);
        b.iter(|| {
            for &n in &candidates {
                state.mat.insert(&pdag, n);
                state.table = CostTable::compute(&pdag, &state.mat);
                black_box(state.total(&pdag));
                state.mat.remove(&pdag, n);
                state.table = CostTable::compute(&pdag, &state.mat);
            }
        });
    });
    group.finish();
}

fn bench_greedy_ablations(c: &mut Criterion) {
    let w = Scaleup::new(2_000);
    // the context does not depend on GreedyOptions: prepare once, search
    // under each ablation config
    let ctx = Optimizer::new(&w.catalog).prepare(&w.cq(2));
    let mut group = c.benchmark_group("greedy_ablations");
    group.sample_size(10);
    let configs = [
        ("all_on", GreedyOptions::new()),
        (
            "no_monotonicity",
            GreedyOptions::new().with_monotonicity(false),
        ),
        (
            "no_sharability",
            GreedyOptions::new().with_sharability(false),
        ),
        (
            "no_incremental",
            GreedyOptions::new().with_incremental(false),
        ),
    ];
    for (name, g) in configs {
        let optimizer = Optimizer::with_options(&w.catalog, Options::new().with_greedy(g));
        group.bench_function(format!("CQ2/{name}"), |b| {
            b.iter(|| black_box(optimizer.search(&ctx, "Greedy").unwrap().cost));
        });
    }
    group.finish();
}

fn bench_greedy_vs_ks15(c: &mut Criterion) {
    let w = Scaleup::new(2_000);
    let optimizer = bench_optimizer(&w.catalog);
    let ctx = optimizer.prepare(&w.cq(2));
    let mut group = c.benchmark_group("greedy_vs_ks15");
    group.sample_size(10);
    for strategy in ["Greedy", "KS15-Greedy"] {
        group.bench_function(format!("CQ2/{strategy}"), |b| {
            b.iter(|| black_box(optimizer.search(&ctx, strategy).unwrap().cost));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_incremental_vs_full,
    bench_greedy_ablations,
    bench_greedy_vs_ks15
);
criterion_main!(benches);
