//! `optimize-scaleup` — the paper's optimization-time axis (Fig. 9/10).
//!
//! No database, no execution: each op is `Optimizer::prepare` +
//! `search` of one batch — the scale-up composites CQ1..CQ5, TPC-D
//! BQ5, and the §6.4 no-overlap control (nothing sharable, so pure
//! optimizer overhead). `dag`, `physical` and `core` do all the work;
//! `exec`, `sql` and `serve` do nothing, so an executor change must
//! show no movement here.

use std::time::Instant;

use mqo_catalog::Catalog;
use mqo_core::Optimizer;
use mqo_logical::Batch;
use mqo_workloads::{no_overlap, Scaleup, Tpcd};

use crate::cold::SCALE;
use crate::harness::{Lap, OpRecord, TraceOut, Workload};
use crate::oracle::{fnv64, Oracle};
use crate::rng::SplitMix64;
use crate::span::Recorder;
use crate::staged::{Stager, STRATEGY};

/// Passes over the seven batches in one timed lap, and in the warm-up.
const PASSES: usize = 30;
const WARMUP_PASSES: usize = 10;
const INPUTS: usize = 7;
/// The scale-up instance is one fixed draw, as the paper's was: its
/// relation sizes decide the plans, and `est_cost_ratio` can only be
/// held to a tight bound if the plans do not change with `--seed`.
/// The seed still decides the order of the ops.
const SCALEUP_SEED: u64 = 7;

/// The catalogs and batches, built during set-up: catalog and batch
/// construction is all the set-up this workload has.
pub struct Batches {
    catalogs: [Catalog; 3],
    /// `(name, index into catalogs, batch)`.
    inputs: Vec<(String, usize, Batch)>,
}

pub struct OptimizeScaleup {
    order: Vec<usize>,
    oracle: Oracle,
}

impl OptimizeScaleup {
    pub fn new(seed: u64) -> OptimizeScaleup {
        let mut order: Vec<usize> = (0..INPUTS).collect();
        SplitMix64::fork(seed, "optimize-scaleup/order").shuffle(&mut order);
        OptimizeScaleup {
            order,
            oracle: Oracle::new("optimize-scaleup", seed),
        }
    }

    fn lap_ops(&self, lap: usize) -> Vec<usize> {
        let passes = if lap == 0 { WARMUP_PASSES } else { PASSES };
        self.order
            .iter()
            .copied()
            .cycle()
            .take(passes * INPUTS)
            .collect()
    }
}

impl Workload for OptimizeScaleup {
    type World = Batches;

    fn name(&self) -> &'static str {
        "optimize-scaleup"
    }

    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scale", format!("scaleup({SCALEUP_SEED}) + tpcd {SCALE}")),
            ("clients", "1".into()),
            ("ops_per_lap", (PASSES * INPUTS).to_string()),
        ]
    }

    fn setups(&self) -> usize {
        5
    }

    fn build(&mut self) -> Batches {
        let scaleup = Scaleup::new(SCALEUP_SEED);
        let tpcd = Tpcd::new(SCALE);
        let (plain_catalog, plain) = no_overlap();
        let mut inputs: Vec<(String, usize, Batch)> = (1..=5)
            .map(|i| (format!("CQ{i}"), 0, scaleup.cq(i)))
            .collect();
        inputs.push(("BQ5".into(), 1, tpcd.bq(5)));
        inputs.push(("no-overlap".into(), 2, plain));
        assert_eq!(inputs.len(), INPUTS);
        Batches {
            catalogs: [scaleup.catalog, tpcd.catalog, plain_catalog],
            inputs,
        }
    }

    fn lap(&mut self, world: &mut Batches, lap: usize) -> Lap {
        let mut out = Lap::default();
        for input in self.lap_ops(lap) {
            let (name, catalog, batch) = &world.inputs[input];
            let optimizer = Optimizer::new(&world.catalogs[*catalog]);
            let t = Instant::now();
            let ctx = optimizer.prepare(batch);
            let found = optimizer.search(&ctx, STRATEGY);
            let secs = t.elapsed().as_secs_f64();
            // There are no rows to check. On first sight of an input the
            // plan's cost is re-derived from its materialized set by the
            // extraction path and bounded by the unshared plan's; after
            // that the same input must keep giving the same cost.
            let ok = found.is_ok_and(|found| {
                let cost = found.cost.secs();
                let expected = self.oracle.ensure(fnv64(name.as_bytes()), name, || {
                    let volcano = optimizer
                        .search(&ctx, "Volcano")
                        .expect("Volcano is a built-in strategy")
                        .cost
                        .secs();
                    let rederived = optimizer.extract(&ctx, &found.mat).total_cost.secs();
                    let honest = (rederived - cost).abs() <= 1e-9 * cost && cost <= volcano;
                    (Vec::new(), if honest { cost } else { f64::NAN }, volcano)
                });
                !found.stats.degraded && cost == expected.strategy_cost
            });
            out.wall += secs;
            out.ops.push(OpRecord {
                secs,
                queries: batch.len(),
                hash: 0,
                ok,
            });
        }
        out
    }

    fn trace(&mut self, rec: &mut Recorder, world: &mut Batches, _: &Lap) -> TraceOut {
        let stager = Stager::new(mqo_exec::Database::new(), 0);
        let mut out = TraceOut::default();
        for (i, input) in self.lap_ops(1).into_iter().enumerate() {
            let (name, catalog, batch) = &world.inputs[input];
            let catalog = &world.catalogs[*catalog];
            rec.set_op(i as u32);
            rec.enter("op");
            let planned = stager.optimize(rec, catalog, batch);
            rec.unwind(); // closes "op", and whatever a failed stage left open
            let same = planned.is_ok_and(|planned| {
                let expected = self.oracle.get(fnv64(name.as_bytes()));
                let same = expected.is_some_and(|e| e.strategy_cost == planned.cost_secs());
                stager.layer_only(rec, catalog, batch, planned).is_ok() && same
            });
            rec.unwind();
            out.ops += 1;
            out.attempted += 1;
            out.failed += usize::from(!same);
        }
        out
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn oracle_mut(&mut self) -> &mut Oracle {
        &mut self.oracle
    }

    fn datagen_secs(&self) -> f64 {
        0.0
    }
}
