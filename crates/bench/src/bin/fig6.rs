//! Figure 6: optimization of stand-alone TPCD queries (Q2, Q2-D, Q11,
//! Q15) — estimated plan cost and optimization time for Volcano,
//! Volcano-SH, Volcano-RU, Greedy, and the KS15 bi-directional greedy
//! (registered via the public `Strategy` extension point). Each query's
//! DAG is expanded once and searched by every strategy. `--notin`
//! additionally reproduces the §6.1 modified-Q2 experiment (`not in`
//! correlation, ≈9× win).

use mqo_bench::{bench_optimizer, ms, run_all, secs, TextTable};
use mqo_workloads::Tpcd;

fn main() {
    let notin = std::env::args().any(|a| a == "--notin");
    let w = Tpcd::new(1.0);
    let optimizer = bench_optimizer(&w.catalog);

    let mut cost_t = TextTable::new(&[
        "query",
        "Volcano",
        "Volcano-SH",
        "Volcano-RU",
        "Greedy",
        "KS15",
    ]);
    let mut time_t = TextTable::new(&[
        "query",
        "DAG(ms)",
        "Volcano(ms)",
        "Volcano-SH(ms)",
        "Volcano-RU(ms)",
        "Greedy(ms)",
        "KS15(ms)",
    ]);
    for (name, batch) in w.standalone() {
        let ctx = optimizer.prepare(&batch); // expanded once, shared
        let results =
            run_all(&optimizer, &ctx).expect("bench_optimizer registers every compared strategy");
        cost_t.row(
            std::iter::once(name.to_string())
                .chain(results.iter().map(|(_, r)| secs(r.cost.secs())))
                .collect(),
        );
        time_t.row(
            [name.to_string(), ms(ctx.dag_time_secs)]
                .into_iter()
                .chain(results.iter().map(|(_, r)| ms(r.stats.search_time_secs)))
                .collect(),
        );
    }
    cost_t.print("Figure 6 (left): estimated cost of stand-alone TPCD queries [s]");
    time_t.print("Figure 6 (right): DAG build (shared) + per-strategy search time [ms]");

    if notin {
        let batch = w.q2_notin();
        let ctx = optimizer.prepare(&batch);
        let results =
            run_all(&optimizer, &ctx).expect("bench_optimizer registers every compared strategy");
        let mut t = TextTable::new(&["algorithm", "est. cost [s]", "vs Volcano"]);
        let base = results[0].1.cost.secs();
        for (name, r) in &results {
            t.row(vec![
                name.to_string(),
                secs(r.cost.secs()),
                format!("{:.1}x", base / r.cost.secs()),
            ]);
        }
        t.print(
            "Section 6.1: modified Q2 (`not in`, <> correlation) — paper reports ~9x for Greedy",
        );
    }
}
