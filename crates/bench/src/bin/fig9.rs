//! Figure 9: the scale-up workload CQ1..CQ5 — estimated cost and
//! optimization time per strategy, plus DAG sizes (the paper notes the
//! DAG grows linearly in the number of queries). The staged session API
//! makes the DAG-build/search boundary real: the time table reports the
//! shared DAG time once per batch and each strategy's search time
//! separately.

use mqo_bench::{bench_optimizer, ms, run_all, secs, TextTable};
use mqo_workloads::Scaleup;

fn main() {
    let w = Scaleup::new(2_000);
    let optimizer = bench_optimizer(&w.catalog);
    let mut cost_t = TextTable::new(&[
        "batch",
        "Volcano",
        "Volcano-SH",
        "Volcano-RU",
        "Greedy",
        "KS15",
    ]);
    let mut time_t = TextTable::new(&[
        "batch",
        "DAG(ms)",
        "Volcano(ms)",
        "Volcano-SH(ms)",
        "Volcano-RU(ms)",
        "Greedy(ms)",
        "KS15(ms)",
        "groups",
        "ops",
    ]);
    for i in 1..=5 {
        let batch = w.cq(i);
        let ctx = optimizer.prepare(&batch); // expanded once, shared
        let results =
            run_all(&optimizer, &ctx).expect("bench_optimizer registers every compared strategy");
        cost_t.row(
            std::iter::once(format!("CQ{i}"))
                .chain(results.iter().map(|(_, r)| secs(r.cost.secs())))
                .collect(),
        );
        let g = &results[3].1;
        time_t.row(
            [format!("CQ{i}"), ms(ctx.dag_time_secs)]
                .into_iter()
                .chain(results.iter().map(|(_, r)| ms(r.stats.search_time_secs)))
                .chain([g.stats.dag_groups.to_string(), g.stats.dag_ops.to_string()])
                .collect(),
        );
    }
    cost_t.print("Figure 9 (left): estimated cost of scale-up queries [s]");
    time_t.print("Figure 9 (right): DAG build (shared) vs per-strategy search time [ms], DAG size");
}
