//! Plan identity on the scale-up axis: the DAG sizes, the physical DAG
//! sizes, and every strategy's cost bits and materialized node ids are
//! pinned for the inputs of the `optimize-scaleup` benchmark (CQ1–CQ5,
//! BQ5 and the no-overlap control).
//!
//! Physical node ids are creation order, so a pinned `mat` list fails as
//! soon as an optimizer change creates a group, op or physical node in a
//! different order — even when the plan it finds is equally good. Speed
//! work on expansion, the physical build or Greedy's probes must leave
//! every value here unchanged. On a mismatch the test prints the observed
//! table in source form.

use mqo::catalog::Catalog;
use mqo::core::Optimizer;
use mqo::logical::Batch;
use mqo::workloads::{no_overlap, Scaleup, Tpcd};

/// The strategies whose answers are pinned, in table order.
const STRATEGIES: [&str; 4] = ["Volcano", "Volcano-SH", "Volcano-RU", "Greedy"];

/// Everything pinned about one input.
#[derive(Debug, PartialEq)]
struct Pin {
    name: &'static str,
    /// `(dag.num_groups(), dag.num_ops())`.
    dag: (usize, usize),
    /// `(pdag.num_nodes(), pdag.num_ops())`.
    pdag: (usize, usize),
    /// Per strategy in [`STRATEGIES`] order: cost bits and sorted mat ids.
    plans: [(u64, &'static [usize]); 4],
    /// Greedy's `(sharable, candidates, benefit_recomputations)`.
    greedy: (usize, usize, u64),
}

const EXPECTED: &[Pin] = &[
    Pin {
        name: "CQ1",
        dag: (36, 125),
        pdag: (80, 423),
        plans: [
            (0x4075c671de69ad44, &[]),
            (0x40732ede00d1b718, &[35, 66]),
            (0x4071bc779a6b50b1, &[8, 16, 35, 68]),
            (0x4070f99e83e425af, &[9, 38]),
        ],
        greedy: (17, 47, 59),
    },
    Pin {
        name: "CQ2",
        dag: (92, 349),
        pdag: (204, 1195),
        plans: [
            (0x408ab574538ef34d, &[]),
            (0x40863bf5c28f5c2a, &[35, 36, 38, 72, 102, 129, 132]),
            (0x40853a999999999a, &[9, 36, 38, 39, 72, 105, 129, 132]),
            (0x40829e38ef34d6a1, &[36, 44, 72, 129, 132]),
        ],
        greedy: (37, 107, 150),
    },
    Pin {
        name: "CQ3",
        dag: (148, 573),
        pdag: (328, 1967),
        plans: [
            (0x4095db8adab9f559, &[]),
            (
                0x4092dd212d77318f,
                &[35, 36, 38, 72, 103, 131, 134, 286, 314],
            ),
            (
                0x40918e82de00d1b8,
                &[8, 17, 36, 38, 75, 100, 162, 223, 283, 310],
            ),
            (0x40900a8a3d70a3d7, &[36, 44, 72, 134, 196, 253, 286, 310]),
        ],
        greedy: (57, 167, 228),
    },
    Pin {
        name: "CQ4",
        dag: (204, 797),
        pdag: (452, 2739),
        plans: [
            (0x409e5d9ce075f6fd, &[]),
            (
                0x4099015532617c1b,
                &[
                    35, 36, 38, 72, 103, 131, 134, 289, 315, 318, 320, 350, 377, 383, 436,
                ],
            ),
            (
                0x4097ae7972474538,
                &[8, 17, 36, 38, 75, 100, 162, 224, 286, 315, 377, 383, 436],
            ),
            (
                0x4095d8813a92a305,
                &[36, 44, 72, 131, 134, 224, 286, 320, 380, 440],
            ),
        ],
        greedy: (77, 227, 319),
    },
    Pin {
        name: "CQ5",
        dag: (260, 1021),
        pdag: (576, 3511),
        plans: [
            (0x40a28c9ff2e48e8a, &[]),
            (
                0x409f37b6e2eb1c42,
                &[
                    35, 36, 38, 72, 103, 131, 134, 289, 315, 318, 320, 351, 379, 385, 441, 471,
                    502, 560,
                ],
            ),
            (
                0x409d328f9096bb97,
                &[
                    8, 17, 36, 38, 75, 100, 162, 224, 286, 315, 379, 385, 441, 501, 560,
                ],
            ),
            (
                0x409acf1a36e2eb1c,
                &[36, 44, 72, 131, 134, 224, 286, 320, 382, 447, 474, 534],
            ),
        ],
        greedy: (97, 287, 406),
    },
    Pin {
        name: "BQ5",
        dag: (123, 339),
        pdag: (290, 1347),
        plans: [
            (0x40473dcc63f14120, &[]),
            (0x40452d5cfaacd9e8, &[6, 55, 104, 168, 175, 218, 247, 265]),
            (0x4044353f7ced9168, &[6, 55, 110, 168, 175, 218, 247, 265]),
            (
                0x40438532617c1bda,
                &[7, 9, 55, 110, 160, 175, 219, 247, 249],
            ),
        ],
        greedy: (35, 96, 129),
    },
    Pin {
        name: "no-overlap",
        dag: (36, 61),
        pdag: (76, 216),
        plans: [
            (0x403b1b8bac710cb2, &[]),
            (0x403b1b8bac710cb2, &[]),
            (0x403b1b8bac710cb2, &[]),
            (0x403b1b8bac710cb2, &[]),
        ],
        greedy: (0, 0, 0),
    },
];

fn observe(name: &'static str, catalog: &Catalog, batch: &Batch) -> Pin {
    let optimizer = Optimizer::new(catalog);
    let ctx = optimizer.prepare(batch);
    let mut greedy = (0, 0, 0);
    let plans = STRATEGIES.map(|s| {
        let r = optimizer.search(&ctx, s).expect("built-in strategy");
        if s == "Greedy" {
            greedy = (
                r.stats.sharable,
                r.stats.candidates,
                r.stats.benefit_recomputations,
            );
        }
        let mut mat: Vec<usize> = r.mat.iter().map(|n| n.index()).collect();
        mat.sort_unstable();
        let mat: &'static [usize] = Vec::leak(mat);
        (r.cost.secs().to_bits(), mat)
    });
    Pin {
        name,
        dag: (ctx.dag.num_groups(), ctx.dag.num_ops()),
        pdag: (ctx.pdag.num_nodes(), ctx.pdag.num_ops()),
        plans,
        greedy,
    }
}

fn source(p: &Pin) -> String {
    let plans: Vec<String> = p
        .plans
        .iter()
        .map(|(bits, mat)| format!("        ({bits:#018x}, &{mat:?}),"))
        .collect();
    format!(
        "    Pin {{\n        name: {:?},\n        dag: {:?},\n        pdag: {:?},\n        plans: [\n{}\n        ],\n        greedy: {:?},\n    }},",
        p.name,
        p.dag,
        p.pdag,
        plans.join("\n"),
        p.greedy
    )
}

#[test]
fn scaleup_inputs_keep_their_dags_and_plans() {
    let scaleup = Scaleup::new(7);
    let tpcd = Tpcd::new(0.01);
    let (plain_catalog, plain) = no_overlap();
    let names = ["CQ1", "CQ2", "CQ3", "CQ4", "CQ5"];
    let mut observed: Vec<Pin> = names
        .iter()
        .enumerate()
        .map(|(i, &name)| observe(name, &scaleup.catalog, &scaleup.cq(i + 1)))
        .collect();
    observed.push(observe("BQ5", &tpcd.catalog, &tpcd.bq(5)));
    observed.push(observe("no-overlap", &plain_catalog, &plain));
    let rendered: Vec<String> = observed.iter().map(source).collect();
    assert!(
        observed == EXPECTED,
        "observed plans differ from the pinned ones; observed:\n{}",
        rendered.join("\n")
    );
}
