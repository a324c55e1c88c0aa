//! Batch reporting: optimize a batch of TPC-D-like reporting queries (the
//! paper's Experiment 2 workload) with every registered strategy and
//! compare — including the KS15 bi-directional greedy, which plugs into
//! the session through the public `Strategy` registry rather than any
//! built-in dispatch.
//!
//! It also shows the staged session API over a curated registry
//! (`Optimizer::with_registry`, dropping the slow Exhaustive oracle): the
//! batch's DAG is prepared once and every registered strategy searches
//! it in turn, in registration order (`Optimizer::search_with`).
//!
//! Run with: `cargo run --release --example batch_reporting`

use mqo::core::{Optimized, Optimizer, Options, Registry};
use mqo::ks15::Ks15Greedy;
use mqo::workloads::Tpcd;
use std::sync::Arc;

fn main() {
    let w = Tpcd::new(1.0);
    let batch = w.bq(3); // Q3, Q5, Q7 — each at two selection constants

    // A curated registry: the built-ins minus the Exhaustive oracle
    // (too slow at this size), plus KS15 through the extension point.
    let mut registry = Registry::empty();
    for s in Registry::builtin().iter() {
        if s.name() != "Exhaustive" {
            registry.register(Arc::clone(s)).unwrap();
        }
    }
    registry.register(Arc::new(Ks15Greedy)).unwrap();

    let optimizer = Optimizer::with_registry(&w.catalog, Options::new(), registry);

    // One expanded DAG, searched by every registered strategy in turn.
    let ctx = optimizer.prepare(&batch);
    println!(
        "batch of {} queries over the TPC-D-like schema (scale 1)",
        batch.len()
    );
    println!(
        "DAG prepared once in {:.2} ms, searched by {} strategies\n",
        ctx.dag_time_secs * 1e3,
        optimizer.registry().len()
    );
    let results: Vec<(String, Optimized)> = optimizer
        .registry()
        .iter()
        .map(|s| {
            let r = optimizer
                .search_with(&ctx, s.as_ref())
                .expect("built-in searches are fault-free here");
            (s.name().to_string(), r)
        })
        .collect();

    println!(
        "{:<12} {:>14} {:>12} {:>8} {:>12}",
        "strategy", "est. cost [s]", "search [ms]", "temps", "vs Volcano"
    );
    let base = results[0].1.cost.secs(); // registration order: Volcano first
    for (name, r) in &results {
        println!(
            "{:<12} {:>14.2} {:>12.2} {:>8} {:>11.1}%",
            name,
            r.cost.secs(),
            r.stats.search_time_secs * 1e3,
            r.stats.materialized,
            100.0 * (1.0 - r.cost.secs() / base)
        );
    }

    // Show what Greedy decided to share (same context — no rebuild).
    let greedy = &results
        .iter()
        .find(|(name, _)| name == "Greedy")
        .expect("Greedy is registered")
        .1;
    println!(
        "\nGreedy materializes {} result(s):",
        greedy.plan.materialized.len()
    );
    for &m in &greedy.plan.materialized {
        let node = ctx.pdag.node(m);
        let group = ctx.dag.group(node.group);
        println!(
            "  group g{} ({} rows, {} blocks) with property {}",
            node.group, group.rows as u64, node.blocks as u64, node.prop
        );
    }
}
