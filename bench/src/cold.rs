//! `batch-cold` — the paper's one-shot use of the optimizer.
//!
//! One `MqoSession` over TPC-D data; each op clears the cache (untimed)
//! and submits one of the paper's batches (timed). Execution, temp
//! materialisation and first admission dominate; planning is a few
//! milliseconds of each op; `sql` and `serve` do nothing.

use std::time::Instant;

use mqo_exec::{generate_database, Database, Table};
use mqo_expr::{ParamId, Value};
use mqo_logical::Batch;
use mqo_session::{MqoSession, SessionOptions, DEFAULT_MV_BUDGET_BYTES};
use mqo_util::{FxHashMap, MqoError};
use mqo_workloads::Tpcd;

use crate::harness::{Lap, OpRecord, TraceOut, Workload};
use crate::oracle::{fnv64, hash_results, reference, Canon, Oracle};
use crate::rng::SplitMix64;
use crate::span::Recorder;
use crate::staged::{Stager, STRATEGY};

pub const SCALE: f64 = 0.01;
/// Passes over the nine batches in one timed lap.
const PASSES: usize = 3;

struct Input {
    name: &'static str,
    batch: Batch,
    /// Q2 is the correlated form: its nested block takes the outer
    /// row's part key as parameter `:0`, bound here to one seeded key —
    /// one invocation of the nested block. Empty for the others.
    params: FxHashMap<ParamId, Value>,
}

pub struct BatchCold {
    seed: u64,
    tpcd: Tpcd,
    inputs: Vec<Input>,
    /// The seed-shuffled order the ops cycle through.
    order: Vec<usize>,
    oracle: Oracle,
    oracle_db: Option<Database>,
    datagen: Vec<f64>,
}

impl BatchCold {
    pub fn new(seed: u64) -> BatchCold {
        let tpcd = Tpcd::new(SCALE);
        let part_key =
            SplitMix64::fork(seed, "batch-cold/q2-part").below((200_000.0 * SCALE) as u64);
        let input = |name, batch, params| Input {
            name,
            batch,
            params,
        };
        let none = FxHashMap::default;
        let inputs = vec![
            input("BQ1", tpcd.bq(1), none()),
            input("BQ2", tpcd.bq(2), none()),
            input("BQ3", tpcd.bq(3), none()),
            input("BQ4", tpcd.bq(4), none()),
            input("BQ5", tpcd.bq(5), none()),
            input(
                "Q2",
                tpcd.q2(),
                [(ParamId(0), Value::Int(part_key as i64))]
                    .into_iter()
                    .collect(),
            ),
            input("Q2-D", tpcd.q2d(), none()),
            input("Q11", tpcd.q11(), none()),
            input("Q15", tpcd.q15(), none()),
        ];
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        SplitMix64::fork(seed, "batch-cold/order").shuffle(&mut order);
        BatchCold {
            seed,
            tpcd,
            inputs,
            order,
            oracle: Oracle::new("batch-cold", seed),
            oracle_db: None,
            datagen: Vec::new(),
        }
    }

    fn lap_ops(&self, lap: usize) -> Vec<usize> {
        let passes = if lap == 0 { 1 } else { PASSES };
        self.order
            .iter()
            .copied()
            .cycle()
            .take(passes * self.order.len())
            .collect()
    }

    /// Checks one op's tables against the reference, outside any timed
    /// span; returns `(hash, ok)`.
    fn check(&mut self, input: usize, tables: &[Table], full: bool) -> (u64, bool) {
        let BatchCold {
            tpcd,
            inputs,
            oracle,
            oracle_db,
            ..
        } = self;
        let input = &inputs[input];
        let db = oracle_db.as_ref().expect("set-up ran before any op");
        let engine = oracle.engine;
        let expected = oracle.ensure(fnv64(input.name.as_bytes()), input.name, || {
            reference(
                &tpcd.catalog,
                db,
                &input.batch,
                &input.params,
                engine,
                STRATEGY,
            )
        });
        let got: Vec<Canon> = tables
            .iter()
            .map(|t| Canon::from_table(&tpcd.catalog, t))
            .collect();
        (hash_results(&got), expected.matches(&got, full))
    }
}

impl Workload for BatchCold {
    type World = MqoSession;

    fn name(&self) -> &'static str {
        "batch-cold"
    }

    fn settings(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scale", SCALE.to_string()),
            ("clients", "1".into()),
            ("ops_per_lap", (PASSES * self.inputs.len()).to_string()),
            ("mv_budget_bytes", DEFAULT_MV_BUDGET_BYTES.to_string()),
        ]
    }

    fn setups(&self) -> usize {
        3
    }

    fn build(&mut self) -> MqoSession {
        let catalog = Tpcd::new(SCALE).catalog;
        let t = Instant::now();
        let db = generate_database(&catalog, self.seed, usize::MAX);
        self.datagen.push(t.elapsed().as_secs_f64());
        self.oracle_db.get_or_insert_with(|| db.clone());
        MqoSession::new(catalog, db, SessionOptions::new())
    }

    fn lap(&mut self, session: &mut MqoSession, lap: usize) -> Lap {
        let mut done = Vec::new();
        for input in self.lap_ops(lap) {
            let Input { batch, params, .. } = &self.inputs[input];
            session.clear_cache();
            let t = Instant::now();
            let result = session.submit_with_params(batch, params);
            done.push((input, t.elapsed().as_secs_f64(), result));
        }
        let mut out = Lap::default();
        for (input, secs, result) in done {
            out.wall += secs;
            let (hash, ok) = match &result {
                Ok(r) if !r.degraded => self.check(input, &r.results, lap == 0),
                Ok(_) => (0, false),
                Err(e) => {
                    eprintln!("{}", e.render());
                    (0, false)
                }
            };
            if !ok {
                eprintln!("batch-cold: lap {lap}: {} failed", self.inputs[input].name);
            }
            out.ops.push(OpRecord {
                secs,
                queries: self.inputs[input].batch.len(),
                hash,
                ok,
            });
        }
        out
    }

    fn trace(&mut self, rec: &mut Recorder, _: &mut MqoSession, reference: &Lap) -> TraceOut {
        let db = self
            .oracle_db
            .clone()
            .expect("set-up ran before the replay");
        let mut stager = Stager::new(db, DEFAULT_MV_BUDGET_BYTES);
        let mut out = TraceOut::default();
        for (i, input) in self.lap_ops(1).into_iter().enumerate() {
            stager.store.clear();
            rec.set_op(i as u32);
            rec.enter("op");
            let Input { batch, params, .. } = &self.inputs[input];
            let staged = stager.submit(rec, &self.tpcd.catalog, batch, params);
            rec.unwind(); // closes "op", and whatever a failed stage left open
            let ok = staged.and_then(|(tables, planned)| {
                stager.layer_only(rec, &self.tpcd.catalog, batch, planned)?;
                Ok::<_, MqoError>(tables)
            });
            rec.unwind();
            let same = match ok {
                Ok(tables) => {
                    let (hash, ok) = self.check(input, &tables, false);
                    ok && hash == reference.ops[i].hash
                }
                Err(_) => false,
            };
            out.ops += 1;
            out.attempted += 1;
            out.failed += usize::from(!same);
        }
        out.gauges = vec![
            ("exec.mv_store.entries", stager.store.len() as f64),
            ("exec.mv_store.bytes_used", stager.store.bytes_used() as f64),
        ];
        out
    }

    fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    fn oracle_mut(&mut self) -> &mut Oracle {
        &mut self.oracle
    }

    fn datagen_secs(&self) -> f64 {
        crate::stats::median(&self.datagen)
    }
}
