//! Section 6.3 ablations: the effect of greedy's individual
//! optimizations on the scale-up workload.
//!
//! * `mono`  — monotonicity heuristic on/off: benefit recomputations and
//!   optimization time (paper: ~45 vs ~1558 recomputations per pick, and
//!   a 10x time gap at CQ2, with virtually identical plan costs).
//! * `shar`  — sharability pre-filter on/off: optimization time (paper:
//!   30s → 46s at CQ2... reported as a significant increase).
//! * `incr`  — incremental cost update vs full recomputation per benefit.
//!
//! Each batch's DAG is prepared once; the ablation configs only change
//! `GreedyOptions`, which the DAG stages don't depend on, so every
//! config searches the same shared context (previously each config
//! re-expanded the DAG from scratch).

use mqo_bench::{ms, secs, TextTable};
use mqo_core::{GreedyOptions, OptContext, Optimized, Optimizer, Options};
use mqo_workloads::Scaleup;

/// Re-searches a prepared context with the given ablation switches.
fn run(optimizer: &mut Optimizer<'_>, ctx: &OptContext<'_>, g: GreedyOptions) -> Optimized {
    *optimizer.options_mut() = Options::new().with_greedy(g);
    optimizer.search(ctx, "Greedy").expect("built-in")
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let w = Scaleup::new(2_000);
    let max_cq = if which == "all" { 4 } else { 5 };
    let mut optimizer = Optimizer::new(&w.catalog);

    if which == "mono" || which == "all" {
        let mut t = TextTable::new(&[
            "batch",
            "time on(ms)",
            "time off(ms)",
            "benefits on",
            "benefits off",
            "cost on",
            "cost off",
        ]);
        for i in 1..=max_cq {
            let ctx = optimizer.prepare(&w.cq(i));
            let on = run(&mut optimizer, &ctx, GreedyOptions::new());
            let off = run(
                &mut optimizer,
                &ctx,
                GreedyOptions::new().with_monotonicity(false),
            );
            t.row(vec![
                format!("CQ{i}"),
                ms(on.stats.search_time_secs),
                ms(off.stats.search_time_secs),
                on.stats.benefit_recomputations.to_string(),
                off.stats.benefit_recomputations.to_string(),
                secs(on.cost.secs()),
                secs(off.cost.secs()),
            ]);
        }
        t.print("Section 6.3: monotonicity heuristic on/off (same plans, far fewer benefit computations)");
    }

    if which == "shar" || which == "all" {
        let mut t = TextTable::new(&[
            "batch",
            "time on(ms)",
            "time off(ms)",
            "candidates on",
            "candidates off",
            "cost on",
            "cost off",
        ]);
        for i in 1..=max_cq {
            let ctx = optimizer.prepare(&w.cq(i));
            let on = run(&mut optimizer, &ctx, GreedyOptions::new());
            let off = run(
                &mut optimizer,
                &ctx,
                GreedyOptions::new().with_sharability(false),
            );
            t.row(vec![
                format!("CQ{i}"),
                ms(on.stats.search_time_secs),
                ms(off.stats.search_time_secs),
                // the probed pool: sharable variants vs everything
                // (`sharable` itself now reports the honest §4.1 count
                // in both runs)
                on.stats.candidates.to_string(),
                off.stats.candidates.to_string(),
                secs(on.cost.secs()),
                secs(off.cost.secs()),
            ]);
        }
        t.print("Section 6.3: sharability computation on/off");
    }

    if which == "incr" || which == "all" {
        let mut t = TextTable::new(&["batch", "time incr(ms)", "time full(ms)", "cost equal"]);
        for i in 1..=max_cq.min(3) {
            let ctx = optimizer.prepare(&w.cq(i));
            let on = run(&mut optimizer, &ctx, GreedyOptions::new());
            let off = run(
                &mut optimizer,
                &ctx,
                GreedyOptions::new().with_incremental(false),
            );
            t.row(vec![
                format!("CQ{i}"),
                ms(on.stats.search_time_secs),
                ms(off.stats.search_time_secs),
                ((on.cost.secs() - off.cost.secs()).abs() < 1e-6).to_string(),
            ]);
        }
        t.print("Section 4.2 ablation: incremental cost update vs full recomputation");
    }
}
