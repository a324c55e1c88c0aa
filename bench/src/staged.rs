//! The staged replay: one submit, walked stage by stage from outside.
//!
//! `SessionCore::plan_execute` + `commit_staged` (what `MqoSession::submit`
//! and the serving workers run) are re-walked here through the layers'
//! own public functions, with a span around each call and the counts
//! the layers already keep (`OptStats`, execution outcome, admission
//! outcome) recorded at the same points. The glue between the calls —
//! building the warm set, the seed map, the admission offers — is the
//! session's glue re-stated; its time is the enclosing spans' self
//! time, which is how `session.unaccounted_share` is measured.
//!
//! Span names are the per-layer metric names without their `_us`.

use std::sync::Arc;

use mqo_catalog::Catalog;
use mqo_core::{OptContext, Optimized, Optimizer, Options, Registry, VerifyLevel};
use mqo_dag::Fingerprint;
use mqo_exec::{try_execute_plan_seeded, Database, ExecOptions, MvStore, Table};
use mqo_expr::{ParamId, Value};
use mqo_logical::Batch;
use mqo_physical::{CostTable, MatSet, PhysNodeId};
use mqo_session::{commit_staged, AdmissionOffer, BatchResult, StagedSubmit};
use mqo_util::{FxHashMap, MqoError};

use crate::span::Recorder;

/// The strategy the sessions under test search with.
pub const STRATEGY: &str = "Greedy";

/// The strategies searched for layer numbers only, over the op's own
/// prepared context (as `mqo_bench::run_all` does).
const LAYER_ONLY: [(&str, &str, &str); 4] = [
    ("Volcano", "core.search.volcano", "cost.volcano"),
    ("Volcano-SH", "core.search.volcano-sh", "cost.volcano-sh"),
    ("Volcano-RU", "core.search.volcano-ru", "cost.volcano-ru"),
    ("KS15-Greedy", "ks15.search", "cost.ks15"),
];

/// The session state a staged submit needs: what `SessionCore` and
/// `MqoSession` hold between them.
pub struct Stager {
    pub db: Database,
    pub store: MvStore,
    registry: Registry,
    opt: Options,
    seq: u64,
}

/// The built-in strategies plus KS15, as `SessionCore::new` registers.
pub fn registry() -> Registry {
    let mut registry = Registry::builtin();
    registry
        .register(Arc::new(mqo_ks15::Ks15Greedy))
        .expect("KS15 name is unique among built-ins");
    registry
}

/// A planned batch: the context and the strategy's answer, kept so
/// the layer-only measurements can run after the op's span closed.
pub struct Planned<'a> {
    ctx: OptContext<'a>,
    optimized: Optimized,
    node_fps: Vec<Fingerprint>,
    /// The pre-commit store, the offers made to it and the batch
    /// sequence number: what replaying admission alone needs.
    admission: Option<(MvStore, Vec<AdmissionOffer>, u64)>,
}

impl Planned<'_> {
    /// Estimated cost of the strategy's plan, in seconds.
    pub fn cost_secs(&self) -> f64 {
        self.optimized.cost.secs()
    }
}

impl Stager {
    pub fn new(db: Database, mv_budget_bytes: usize) -> Stager {
        Stager {
            db,
            store: MvStore::new(mv_budget_bytes),
            registry: registry(),
            opt: Options::new(),
            seq: 0,
        }
    }

    fn optimizer<'a>(&self, catalog: &'a Catalog) -> Optimizer<'a> {
        Optimizer::with_registry(catalog, self.opt, self.registry.clone())
    }

    /// expand → physicalize → (fingerprint → warm lookup) → search.
    /// `warm_from` is the store snapshot a session plans around; the
    /// bare optimizer path has none.
    fn plan<'a>(
        rec: &mut Recorder,
        optimizer: &Optimizer<'a>,
        batch: &Batch,
        warm_from: Option<&MvStore>,
    ) -> Result<Planned<'a>, MqoError> {
        let expanded = rec.time("dag.expand", || optimizer.expand(batch));
        let mut ctx = rec.time("physical.build", || optimizer.physicalize(expanded));
        let mut node_fps = Vec::new();
        if let Some(store) = warm_from {
            let group_fps = rec
                .time("dag.fingerprint", || {
                    mqo_dag::try_group_fingerprints(&ctx.dag)
                })
                .map_err(|e| {
                    MqoError::invariant(mqo_util::ErrorStage::Plan, "staged", e.to_string())
                })?;
            node_fps = rec.time("physical.fingerprint", || {
                mqo_physical::node_fingerprints(&ctx.pdag, &group_fps)
            });
            let lookup = rec.enter("session.warm_lookup");
            let mut warm = MatSet::new();
            for (idx, &fp) in node_fps.iter().enumerate() {
                let n = PhysNodeId::from_index(idx);
                if store.contains(fp) && !ctx.dag.group(ctx.pdag.node(n).group).has_param {
                    warm.insert(&ctx.pdag, n);
                }
            }
            ctx.warm = warm;
            rec.exit(lookup);
        }
        let optimized = rec.time("core.search.greedy", || optimizer.search(&ctx, STRATEGY))?;
        let s = &optimized.stats;
        rec.count("dag.groups", s.dag_groups as f64);
        rec.count("dag.ops", s.dag_ops as f64);
        rec.count("dag.sharable", s.sharable as f64);
        rec.count("physical.nodes", s.phys_nodes as f64);
        rec.count("physical.ops", s.phys_ops as f64);
        rec.count(
            "core.greedy.benefit_recomputations",
            s.benefit_recomputations as f64,
        );
        rec.count("core.greedy.cost_propagations", s.cost_propagations as f64);
        rec.count("core.candidates", s.candidates as f64);
        rec.count("core.materialized", s.materialized as f64);
        rec.count("core.warm_reused", s.warm_reused as f64);
        rec.count("cost.greedy", optimized.cost.secs());
        Ok(Planned {
            ctx,
            optimized,
            node_fps,
            admission: None,
        })
    }

    /// Work no op pays for, measured for the layer numbers alone: the
    /// other strategies over the same context, a plan re-extraction,
    /// the fingerprints where the op had no use for them, admission by
    /// itself, and what `MQO_VERIFY=boundaries` would add. Recorded
    /// under its own root span — call it once the op's own span has
    /// closed — so it never counts towards the op's time.
    pub fn layer_only(
        &self,
        rec: &mut Recorder,
        catalog: &Catalog,
        batch: &Batch,
        planned: Planned<'_>,
    ) -> Result<(), MqoError> {
        let optimizer = &self.optimizer(catalog);
        let Planned {
            ctx,
            optimized,
            node_fps,
            admission,
        } = &planned;
        let root = rec.enter("layer_only");
        // Admission alone, offer by offer, replayed on the pre-commit
        // store: `commit_staged` cannot be opened from outside.
        if let Some((before, offers, seq)) = admission {
            let mut scratch = before.clone();
            for offer in offers {
                rec.time("exec.mv_store.admit", || {
                    scratch.try_admit(
                        offer.fp,
                        Arc::clone(&offer.table),
                        offer.benefit_secs,
                        offer.blocks,
                        *seq,
                    )
                })?;
            }
        }
        for (strategy, span, cost) in LAYER_ONLY {
            let found = rec.time(span, || optimizer.search(ctx, strategy))?;
            rec.count(cost, found.cost.secs());
        }
        if node_fps.is_empty() {
            if let Ok(fps) = rec.time("dag.fingerprint", || {
                mqo_dag::try_group_fingerprints(&ctx.dag)
            }) {
                rec.time("physical.fingerprint", || {
                    mqo_physical::node_fingerprints(&ctx.pdag, &fps)
                });
            }
        }
        let plan = rec.time("physical.extract", || {
            optimizer.extract(ctx, &optimized.mat)
        });
        let level = VerifyLevel::Boundaries;
        let clean = rec.time("verify.boundaries", || {
            // The checks `expand`, `physicalize` (which re-checks the
            // DAG) and `search_with` run at this level.
            mqo_verify::verify_batch(batch, optimizer.catalog(), level).is_clean()
                && mqo_verify::verify_dag(&ctx.dag, level).is_clean()
                && mqo_verify::verify_dag(&ctx.dag, level).is_clean()
                && mqo_verify::verify_pdag(&ctx.dag, &ctx.pdag, optimizer.catalog(), level)
                    .is_clean()
                && mqo_verify::verify_result(
                    &ctx.dag,
                    &ctx.pdag,
                    &plan,
                    &optimized.mat,
                    &ctx.warm,
                    optimized.cost,
                    optimized.stats.sharable,
                    level,
                )
                .is_clean()
                && mqo_verify::verify_store(&self.store, level).is_clean()
        });
        rec.exit(root);
        if clean {
            Ok(())
        } else {
            Err(MqoError::invariant(
                mqo_util::ErrorStage::Plan,
                "staged",
                "boundary verification found a broken invariant",
            ))
        }
    }

    /// `Optimizer::prepare` + `search`, staged.
    pub fn optimize<'a>(
        &self,
        rec: &mut Recorder,
        catalog: &'a Catalog,
        batch: &Batch,
    ) -> Result<Planned<'a>, MqoError> {
        Self::plan(rec, &self.optimizer(catalog), batch, None)
    }

    /// `MqoSession::submit`, staged: plan and execute against the
    /// store read-only, then commit on a clone and swap it in.
    pub fn submit<'a>(
        &mut self,
        rec: &mut Recorder,
        catalog: &'a Catalog,
        batch: &Batch,
        params: &FxHashMap<ParamId, Value>,
    ) -> Result<(Vec<Table>, Planned<'a>), MqoError> {
        let seq = self.seq;
        self.seq += 1;
        let submit = rec.enter("session.submit");
        let plan_execute = rec.enter("session.plan_execute");
        let optimizer = self.optimizer(catalog);
        let mut planned = Self::plan(rec, &optimizer, batch, Some(&self.store))?;
        let Planned {
            ctx,
            optimized,
            node_fps,
            ..
        } = &planned;
        let plan = &optimized.plan;

        let mut seeds: FxHashMap<PhysNodeId, Arc<Table>> = FxHashMap::default();
        let mut warm_fps = Vec::with_capacity(plan.warm_used.len());
        for &w in &plan.warm_used {
            let fp = node_fps[w.index()];
            let table = self.store.peek(fp).ok_or_else(|| {
                MqoError::invariant(
                    mqo_util::ErrorStage::Session,
                    w.to_string(),
                    "plan reads a warm temp that is not live in the store",
                )
            })?;
            seeds.insert(w, table);
            warm_fps.push(fp);
        }
        let exec = ExecOptions::lenient_from_env().0;
        let seeded = rec.time("exec.execute", || {
            try_execute_plan_seeded(catalog, &ctx.pdag, plan, &self.db, params, exec, &seeds)
        })?;

        let mut offers = Vec::new();
        if !seeded.built_temps.is_empty() && self.store.budget_bytes() > 0 {
            let table = rec.time("physical.cost_table", || {
                CostTable::compute(&ctx.pdag, &optimized.mat)
            });
            for (n, temp) in &seeded.built_temps {
                if ctx.dag.group(ctx.pdag.node(*n).group).has_param {
                    continue;
                }
                offers.push(AdmissionOffer {
                    fp: node_fps[n.index()],
                    table: Arc::clone(temp),
                    benefit_secs: (table.node_cost[n.index()] - ctx.pdag.reusecost(*n)).secs(),
                    blocks: ctx.pdag.node(*n).blocks,
                });
            }
        }
        let outcome = seeded.outcome;
        let degraded = optimized.stats.degraded || outcome.query_errors.iter().any(Option::is_some);
        let mut staged = StagedSubmit {
            result: BatchResult {
                cost: optimized.cost,
                stats: optimized.stats,
                exec_wall: outcome.wall,
                rows_out: outcome.rows_out,
                temps_built: outcome.temps_built,
                cache_hits: plan.warm_used.len(),
                admitted: 0,
                evicted: 0,
                rejected: 0,
                degraded,
                query_errors: outcome.query_errors,
                results: outcome.results,
            },
            offers,
            warm_fps,
            env_fallback: false,
        };
        rec.exit(plan_execute);

        let mut staged_store = rec.time("exec.mv_store.clone", || self.store.clone());
        rec.time("session.commit", || {
            commit_staged(&mut staged_store, &mut staged, seq, self.opt.verify)
        })?;
        let before = std::mem::replace(&mut self.store, staged_store);
        rec.exit(submit);

        let r = &staged.result;
        rec.count("exec.rows_out", r.rows_out as f64);
        rec.count("exec.temps_built", r.temps_built as f64);
        rec.count("session.cache_hits", r.cache_hits as f64);
        rec.count("exec.mv_store.admitted", r.admitted as f64);
        rec.count("exec.mv_store.evicted", r.evicted as f64);
        rec.count("exec.mv_store.rejected", r.rejected as f64);
        rec.count("serve.degraded", f64::from(u8::from(r.degraded)));
        rec.count("cost.est_secs", r.cost.secs());
        planned.admission = Some((before, staged.offers, seq));
        Ok((staged.result.results, planned))
    }
}
