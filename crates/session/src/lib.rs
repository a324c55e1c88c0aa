//! The long-lived serving facade: [`MqoSession`].
//!
//! The staged [`Optimizer`] stops at one batch — plan it, execute it,
//! drop every temp. That is exactly backwards for a serving system: the
//! paper's premise is that materializing shared subexpressions pays for
//! itself *across* queries, and in steady state the queries that share
//! the most arrive in **consecutive** batches. A session closes the
//! loop:
//!
//! ```text
//!   Session::new(catalog, db, SessionOptions)
//!   loop {
//!       session.submit(batch)   // expand → search → extract → execute
//!   }                           // temps survive in the MvStore
//! ```
//!
//! Each [`MqoSession::submit`] is the whole pipeline in one call, and
//! four mechanisms make consecutive batches cheaper than the first:
//!
//! 1. **Fingerprints** ([`mqo_dag::try_group_fingerprints`] +
//!    [`mqo_physical::node_fingerprints`]) give every physical node a
//!    batch-independent name, so an equivalent subexpression in a later
//!    batch — different [`GroupId`](mqo_dag::GroupId)s, different node
//!    ids — maps to the same cache key.
//! 2. The **[`MvStore`]** keeps the refcounted columnar temps of earlier
//!    batches alive under a byte budget, ranked by the paper's
//!    benefit-per-(whole-)block metric, with hit/miss/evict accounting.
//! 3. The **search plans around the warm cache**: matched nodes are
//!    seeded into the strategy's initial materialized set
//!    ([`mqo_core::OptContext::warm`]) at reuse cost, and charged no
//!    compute or materialization — so Greedy/KS15 spend the batch's
//!    budget on what is *not* already cached, and the extracted plan
//!    reads warm temps zero-copy instead of recomputing them.
//! 4. **Plan reuse**: once every shared temp of a recurring batch is
//!    warm, planning it again is most of what its submit costs — and
//!    yields the plan it got last time, because the optimizer is
//!    deterministic in (batch, catalog statistics, warm set, options).
//!    The [`SessionCore`] keeps a bounded memo of such plans, each a
//!    plan-only slice of its physical DAG, and a batch that recurs
//!    against the same warm set skips expand, physicalize,
//!    fingerprinting and search ([`BatchResult::plan_reused`]).
//!
//! Everything stays deterministic: the same batch stream produces
//! identical plans, costs, and hit/evict sequences, reused plans or
//! not. [`Optimizer`] and
//! [`execute_plan_with`](mqo_exec::execute_plan_with) remain the
//! documented single-batch path (multi-strategy comparisons, figure
//! binaries); the session is the serving path.

mod plan_cache;

use mqo_catalog::Catalog;
use mqo_chaos::Seam;
use mqo_core::{
    OptContext, OptStats, Optimized, Optimizer, Options, Registry, Strategy, VerifyLevel,
};
use mqo_cost::Cost;
use mqo_dag::Fingerprint;
use mqo_exec::{
    try_execute_plan_seeded, Admission, Database, ExecMode, ExecOptions, ExecOutcome, MvStats,
    MvStore, SeededOutcome, Table,
};
use mqo_expr::{ParamId, Value};
use mqo_logical::Batch;
use mqo_physical::{CostTable, ExtractedPlan, PhysNodeId, PhysicalDag};
use mqo_util::{BitSet, ErrorStage, FxHashMap, MqoError};
use plan_cache::{CachedPlan, PlanCache, Sighting};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Default materialized-view budget: 256 MiB of columnar payload.
pub const DEFAULT_MV_BUDGET_BYTES: usize = 256 << 20;

/// Tuning knobs of a session.
#[derive(Debug, Clone)]
#[must_use = "SessionOptions is a builder: chain `with_*` calls and pass it to MqoSession::new"]
pub struct SessionOptions {
    /// Optimizer options (DAG config, cost params, greedy switches,
    /// verification) applied to every submit. Its `deadline` is
    /// replaced on each submit by one derived from `time_budget`.
    pub opt: Options,
    /// Registry name of the strategy each submit searches with.
    /// Defaults to `"Greedy"`; `"KS15-Greedy"` is pre-registered too.
    pub strategy: String,
    /// Execution engine. `Some` takes precedence; `None` falls back to
    /// the process-wide `MQO_EXEC_MODE` ([`ExecOptions::from_env`],
    /// parsed once per process). The executor's deadline and memory
    /// budget come from `time_budget` and `mem_budget`.
    pub exec_mode: Option<ExecMode>,
    /// Byte budget of the [`MvStore`]; `0` disables cross-batch caching
    /// (every submit runs cold).
    pub mv_budget_bytes: usize,
    /// Per-submit wall-clock budget for the whole pipeline. On expiry
    /// the search degrades to its best-so-far answer and execution
    /// aborts the *query in flight* (the batch keeps going); the submit
    /// still returns `Ok` with [`BatchResult::degraded`] set. `None`
    /// (the default) runs ungoverned; the environment default is
    /// `MQO_TIME_BUDGET_MS`.
    pub time_budget: Option<Duration>,
    /// Per-submit memory budget in bytes, charged against the
    /// executor's materialized intermediates. Same degradation contract
    /// as `time_budget`; environment default `MQO_MEM_BUDGET` (plain
    /// bytes, or with a `K`/`M`/`G` suffix).
    pub mem_budget: Option<usize>,
}

/// Reads the process-wide budget defaults `MQO_TIME_BUDGET_MS` and
/// `MQO_MEM_BUDGET` once, leniently: a malformed value falls back to
/// "no budget" and is counted (surfaced through
/// [`SessionStats::env_fallbacks`]) rather than panicking the serving
/// process over a typo in a deploy script.
fn budgets_from_env() -> (Option<Duration>, Option<usize>, u64) {
    static CACHED: OnceLock<(Option<Duration>, Option<usize>, u64)> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let mut warnings = 0u64;
        let time = match std::env::var("MQO_TIME_BUDGET_MS") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(ms) => Some(Duration::from_millis(ms)),
                Err(_) => {
                    warnings += 1;
                    None
                }
            },
            Err(_) => None,
        };
        let mem = match std::env::var("MQO_MEM_BUDGET") {
            Ok(v) => {
                let t = v.trim();
                let (digits, mult) = match t.as_bytes().last() {
                    Some(b'K' | b'k') => (&t[..t.len() - 1], 1usize << 10),
                    Some(b'M' | b'm') => (&t[..t.len() - 1], 1usize << 20),
                    Some(b'G' | b'g') => (&t[..t.len() - 1], 1usize << 30),
                    _ => (t, 1usize),
                };
                match digits.trim().parse::<usize>() {
                    Ok(n) => Some(n.saturating_mul(mult)),
                    Err(_) => {
                        warnings += 1;
                        None
                    }
                }
            }
            Err(_) => None,
        };
        (time, mem, warnings)
    })
}

impl Default for SessionOptions {
    fn default() -> Self {
        let (time_budget, mem_budget, _) = budgets_from_env();
        SessionOptions {
            opt: Options::new(),
            strategy: "Greedy".to_string(),
            exec_mode: None,
            mv_budget_bytes: DEFAULT_MV_BUDGET_BYTES,
            time_budget,
            mem_budget,
        }
    }
}

impl SessionOptions {
    /// Paper-default options: Greedy strategy, 256 MiB cache, engine
    /// knobs from the environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the optimizer options.
    pub fn with_opt(mut self, opt: Options) -> Self {
        self.opt = opt;
        self
    }

    /// Selects the search strategy by registry name.
    pub fn with_strategy(mut self, name: impl Into<String>) -> Self {
        self.strategy = name.into();
        self
    }

    /// Pins the execution engine (overrides the environment).
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = Some(mode);
        self
    }

    /// Sets the materialized-view byte budget (`0` disables caching).
    pub fn with_mv_budget_bytes(mut self, bytes: usize) -> Self {
        self.mv_budget_bytes = bytes;
        self
    }

    /// Sets the per-submit wall-clock budget (`None` = ungoverned).
    pub fn with_time_budget(mut self, budget: Option<Duration>) -> Self {
        self.time_budget = budget;
        self
    }

    /// Sets the per-submit executor memory budget in bytes (`None` =
    /// ungoverned).
    pub fn with_mem_budget(mut self, bytes: Option<usize>) -> Self {
        self.mem_budget = bytes;
        self
    }
}

/// The outcome of one [`MqoSession::submit`].
#[derive(Debug)]
pub struct BatchResult {
    /// One result table per query, in batch order.
    pub results: Vec<Table>,
    /// `bestcost(Q, M)` of the executed plan — warm temps charged at
    /// reuse only, so a warm batch's estimated cost is at most the cold
    /// plan's.
    pub cost: Cost,
    /// Optimizer statistics (timings, counters, DAG sizes).
    pub stats: OptStats,
    /// Wall-clock execution time of the plan.
    pub exec_wall: Duration,
    /// Total rows across all query results.
    pub rows_out: usize,
    /// Cold temps this batch computed and materialized.
    pub temps_built: usize,
    /// Warm temps served from the [`MvStore`] (cache hits).
    pub cache_hits: usize,
    /// Cold temps admitted into the store after execution.
    pub admitted: usize,
    /// Residents evicted to make room for this batch's admissions.
    pub evicted: usize,
    /// Admission offers the store rejected (budget).
    pub rejected: usize,
    /// True when a per-submit budget expired anywhere in the pipeline:
    /// the search committed its best-so-far answer and/or some queries
    /// were aborted. The results that are present are still exact.
    pub degraded: bool,
    /// Per-query abort record, parallel to `results`: `None` for a
    /// query that completed, `Some(budget error)` for one whose result
    /// slot is an empty placeholder.
    pub query_errors: Vec<Option<MqoError>>,
}

impl BatchResult {
    /// True when the batch ran a plan stored for it earlier instead of
    /// being planned again ([`OptStats::plan_reused`]).
    #[must_use]
    pub fn plan_reused(&self) -> bool {
        self.stats.plan_reused
    }
}

/// Unified statistics over a session's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Batches submitted.
    pub batches: u64,
    /// Queries answered.
    pub queries: u64,
    /// Cumulative warm temps read.
    pub cache_hits: u64,
    /// Cumulative cold temps materialized.
    pub temps_built: u64,
    /// Batches answered with a stored plan instead of a fresh search.
    pub plan_reuses: u64,
    /// Store accounting (admissions, evictions, hit/miss counters of the
    /// store's own lookups).
    pub mv: MvStats,
    /// Live cache entries.
    pub mv_entries: usize,
    /// Bytes currently charged against the cache budget.
    pub mv_bytes_used: usize,
    /// The configured cache budget.
    pub mv_budget_bytes: usize,
    /// Σ estimated plan cost, in seconds.
    pub est_cost_secs: f64,
    /// Σ optimizer wall time (DAG stages + search), in seconds.
    pub opt_secs: f64,
    /// Σ execution wall time, in seconds.
    pub exec_secs: f64,
    /// Submits that returned `Ok` but degraded under a budget (search
    /// truncated and/or queries aborted).
    pub degraded_submits: u64,
    /// Individual budget-expiry events: search degradations plus
    /// budget-aborted queries.
    pub budget_expiries: u64,
    /// Queries aborted by a budget (their result slot was an empty
    /// placeholder).
    pub query_aborts: u64,
    /// Submits that returned `Err` (injected fault or broken
    /// invariant).
    pub failed_submits: u64,
    /// Staged store snapshots discarded by failed submits — cross-batch
    /// state rolled back to the last good batch.
    pub rolled_back: u64,
    /// Fallbacks forced by a malformed `MQO_*` environment: one per
    /// submit whose engine knobs fell back to defaults, plus one per
    /// malformed budget variable, counted once when the session opens.
    pub env_fallbacks: u64,
}

/// A long-lived optimize-and-execute session over one catalog and
/// database, with a persistent cross-batch materialized-view cache.
///
/// ```
/// use mqo_catalog::{Catalog, ColStats, ColType};
/// use mqo_exec::generate_database;
/// use mqo_expr::{AggExpr, AggFunc, Atom, Predicate, ScalarExpr};
/// use mqo_logical::{Batch, LogicalPlan, Query};
/// use mqo_session::{MqoSession, SessionOptions};
///
/// let mut cat = Catalog::new();
/// let a = cat.table("a").rows(2_000.0).int_key("ak")
///     .int_uniform("av", 0, 99).clustered_on_first().build();
/// let b = cat.table("b").rows(4_000.0).int_key("bk")
///     .int_uniform("afk", 0, 1_999).clustered_on_first().build();
/// let (av, bk) = (cat.col("a", "av"), cat.col("b", "bk"));
/// let tot = cat.derived_column("tot", ColType::Float, ColStats::opaque(100.0));
/// let pred = Predicate::atom(Atom::eq_cols(cat.col("a", "ak"), cat.col("b", "afk")));
/// let q = LogicalPlan::scan(a)
///     .join(LogicalPlan::scan(b), pred)
///     .aggregate(vec![av], vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(bk), tot)]);
/// let batch = Batch::of(vec![Query::new("q1", q.clone()), Query::new("q2", q)]);
///
/// let db = generate_database(&cat, 7, usize::MAX);
/// let mut session = MqoSession::new(cat, db, SessionOptions::new());
/// let cold = session.submit(&batch).unwrap();
/// let warm = session.submit(&batch).unwrap(); // shared aggregate → cache hit
/// assert!(warm.cache_hits > 0);
/// assert!(warm.temps_built < cold.temps_built);
/// assert!(warm.cost <= cold.cost);
/// ```
pub struct MqoSession {
    catalog: Catalog,
    core: SessionCore,
    store: MvStore,
    /// Monotone batch sequence number (the store's clock).
    batch_seq: u64,
    totals: SessionTotals,
}

/// One cold temp offered to the materialized-view cache by a finished
/// batch: everything the commit step needs to price and admit it
/// without re-touching the plan.
#[derive(Debug, Clone)]
pub struct AdmissionOffer {
    /// Cross-batch fingerprint of the physical node that built the temp.
    pub fp: Fingerprint,
    /// The materialized result.
    pub table: Arc<Table>,
    /// Estimated per-reuse saving in seconds (`compute − reuse` under
    /// the batch's final cost table).
    pub benefit_secs: f64,
    /// Cost-model size estimate in blocks (charged whole).
    pub blocks: f64,
}

/// The outcome of a **pure** [`SessionCore::plan_execute`] pass: the
/// per-query results plus the batch's pending cache effects, staged for
/// a later serialized [`commit_staged`]. Nothing in here has touched
/// shared state yet — a `StagedSubmit` that is dropped instead of
/// committed leaves the store bit-identical to before the submit.
#[derive(Debug)]
pub struct StagedSubmit {
    /// The batch outcome. `admitted`/`evicted`/`rejected` are zero until
    /// [`commit_staged`] fills them in.
    pub result: BatchResult,
    /// Cold temps to offer the store at commit time, in deterministic
    /// (plan topological) order.
    pub offers: Vec<AdmissionOffer>,
    /// Fingerprints of the warm temps the plan read from the snapshot;
    /// the commit records one hit per entry.
    pub warm_fps: Vec<Fingerprint>,
    /// True when the engine knobs fell back to defaults because of a
    /// malformed `MQO_*` environment variable.
    pub env_fallback: bool,
}

/// Applies a staged submit's cache effects to `store`, serially: warm
/// hits are recorded, cold temps admitted (benefit-ranked, budgeted),
/// and the store verified. On `Err` the store may hold a partial
/// admission set — [`commit`] stages on a clone for exactly that
/// reason.
///
/// # Errors
///
/// Returns an injected-fault [`MqoError`] from the admission seams, or
/// an `InvariantViolated` error if the store fails verification after
/// admission.
pub fn commit_staged(
    store: &mut MvStore,
    staged: &mut StagedSubmit,
    seq: u64,
    verify: VerifyLevel,
) -> Result<(), MqoError> {
    for &fp in &staged.warm_fps {
        store.note_hit(fp, seq);
    }
    for offer in &staged.offers {
        match store.try_admit(
            offer.fp,
            Arc::clone(&offer.table),
            offer.benefit_secs,
            offer.blocks,
            seq,
        )? {
            Admission::Admitted { evicted } => {
                staged.result.admitted += 1;
                staged.result.evicted += evicted;
            }
            Admission::Rejected => staged.result.rejected += 1,
            Admission::AlreadyPresent => {}
        }
    }
    // Stage-boundary verification of the only state that survives the
    // batch: the cross-batch cache accounting.
    let report = mqo_verify::verify_store(store, verify);
    if !report.is_clean() {
        return Err(MqoError::invariant(
            ErrorStage::Admission,
            format!("batch {seq}"),
            format!(
                "MV store verification failed after admission:\n{}",
                report.render()
            ),
        ));
    }
    Ok(())
}

/// The transactional commit of a staged submit: [`commit_staged`] onto
/// a copy of `store` — the one O(entries) clone of a commit; entry
/// tables are refcounted, so the copy is shallow — returned for the
/// caller to swap in. On `Err` the copy drops: the rollback, `store`
/// untouched. [`MqoSession::submit`] and the `mqo-serve` front both
/// commit through this.
///
/// # Errors
///
/// Whatever [`commit_staged`] returns.
pub fn commit(
    store: &MvStore,
    staged: &mut StagedSubmit,
    seq: u64,
    verify: VerifyLevel,
) -> Result<MvStore, MqoError> {
    let mut next = store.clone();
    commit_staged(&mut next, staged, seq, verify)?;
    Ok(next)
}

/// The pure planning-and-execution half of a session: database,
/// options, strategy registry and plan cache, with **no** catalog and
/// **no** cross-batch cache state. [`SessionCore::plan_execute`] runs
/// the whole expand → search → extract → execute pipeline on `&self`
/// against a read-only [`MvStore`] snapshot, so any number of submits
/// can plan and execute concurrently over one shared core — the shape
/// the multi-tenant serving front (`mqo-serve`) builds on. All store
/// mutation is deferred into the returned [`StagedSubmit`], applied
/// later by [`commit`] under whatever serialization the caller owns
/// (`&mut self` in [`MqoSession`], the published-store mutex in
/// `mqo-serve`).
///
/// The one thing a core remembers is which plans it derived: a batch
/// that recurs against an unchanged warm set is answered with its
/// stored plan (see [`SessionCore::plan_execute`]). That memo never
/// changes an answer, a cost or a cache decision — only how long the
/// submit takes.
pub struct SessionCore {
    db: Database,
    options: SessionOptions,
    registry: Registry,
    plans: PlanCache,
}

/// One batch planned from scratch: the prepared context, the search's
/// answer, and what plan reuse keys and validates a stored plan by.
struct Planned<'a> {
    ctx: OptContext<'a>,
    optimized: Optimized,
    /// Fingerprint per physical node.
    node_fps: Vec<Fingerprint>,
    /// Nodes whose group reads a parameter (never cached).
    has_param: BitSet,
    /// Nodes the search treated as warm.
    warm: BitSet,
}

impl SessionCore {
    /// Builds a core over a loaded database. The built-in strategies
    /// plus `"KS15-Greedy"` are pre-registered.
    ///
    /// # Panics
    ///
    /// Panics if the KS15 strategy name collides with a built-in name.
    #[must_use]
    pub fn new(db: Database, options: SessionOptions) -> Self {
        let mut registry = Registry::builtin();
        registry
            .register(Arc::new(mqo_ks15::Ks15Greedy))
            .expect("KS15 name is unique among built-ins");
        SessionCore {
            db,
            options,
            registry,
            plans: PlanCache::default(),
        }
    }

    /// The core's database.
    #[must_use]
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The core's options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Registers an additional strategy, selectable via
    /// [`SessionOptions::strategy`].
    ///
    /// # Errors
    ///
    /// Fails with kind `DuplicateStrategy` if the name is already taken.
    pub fn register(&mut self, strategy: Arc<dyn Strategy>) -> Result<(), MqoError> {
        self.registry.register(strategy)
    }

    /// Batch keys the plan cache remembers (at most 256), including
    /// batches seen once and not yet worth a stored plan.
    #[must_use]
    pub fn cached_batches(&self) -> usize {
        self.plans.len()
    }

    /// Optimizes and executes one batch **purely**: expand → warm-match
    /// against the store snapshot → search → extract → execute, reading
    /// warm temps zero-copy out of the snapshot. Neither the store nor
    /// any answer-relevant state of `self` is mutated; every pending
    /// cache effect (warm-hit accounting, admission offers) is staged on
    /// the returned [`StagedSubmit`] for a serialized [`commit_staged`].
    ///
    /// Because the snapshot's entries are refcounted, the warm tables
    /// the plan reads stay alive even if the authoritative store evicts
    /// them before the commit lands — concurrency can cost a stale
    /// cache decision, never a correctness bug.
    ///
    /// **Plan reuse.** A batch equal to one this core planned before —
    /// same queries, weights and labels, same
    /// [`Catalog::stats_epoch`] — whose stored plan was searched
    /// against exactly the warm set `store` offers now skips expand,
    /// physicalize, fingerprinting and search and executes the stored
    /// plan; the result is bit-identical to planning again and carries
    /// [`BatchResult::plan_reused`]. A plan is stored on a batch's
    /// second planning, and only if its search did not degrade and it
    /// materializes no cold temp. At [`VerifyLevel::Full`] every reuse
    /// is checked against a fresh plan.
    ///
    /// # Errors
    ///
    /// Returns an [`MqoError`] for an unknown strategy, an injected
    /// fault, or a broken invariant (a reused plan that differs from a
    /// fresh one included); budget expiry degrades instead (see
    /// [`MqoSession::submit`]).
    pub fn plan_execute(
        &self,
        catalog: &Catalog,
        batch: &Batch,
        params: &FxHashMap<ParamId, Value>,
        seq: u64,
        store: &MvStore,
    ) -> Result<StagedSubmit, MqoError> {
        let deadline = self.options.time_budget.map(|b| Instant::now() + b);
        let epoch = catalog.stats_epoch();
        let key = self.plans.key(batch, epoch);
        let sighting = self.plans.sight(key, batch, epoch);
        if let Sighting::Again(Some(cached)) = &sighting {
            mqo_chaos::hit(Seam::Fingerprint)?;
            mqo_chaos::hit(Seam::WarmLookup)?;
            if cached.warm_set_unchanged(store) {
                if self.options.opt.verify == VerifyLevel::Full {
                    self.verify_reuse(catalog, batch, seq, store, cached)?;
                }
                let (seeded, warm_fps, env_fallback) = self.execute(
                    catalog,
                    &cached.pdag,
                    &cached.plan,
                    &cached.node_fps,
                    params,
                    store,
                    deadline,
                )?;
                // A stored plan builds no cold temp: nothing to offer.
                return Ok(staged_submit(
                    cached.cost,
                    cached.stats,
                    &cached.plan,
                    seeded.outcome,
                    Vec::new(),
                    warm_fps,
                    env_fallback,
                ));
            }
        }

        let planned = self.plan(catalog, batch, store, deadline)?;
        let Planned {
            ctx,
            optimized,
            node_fps,
            has_param,
            ..
        } = &planned;
        let plan = &optimized.plan;
        let (seeded, warm_fps, env_fallback) =
            self.execute(catalog, &ctx.pdag, plan, node_fps, params, store, deadline)?;

        // --- Admission staging: price this batch's cold temps by the
        // optimizer's own benefit estimate (compute − reuse, per whole
        // block) under the final materialized set. Pricing needs
        // per-node costs, which `Optimized` does not carry, so one
        // bottom-up CostTable pass is paid here — but only on batches
        // that actually built temps; the steady-state fully-warm submit
        // (built_temps empty) skips it entirely.
        let mut offers = Vec::new();
        if !seeded.built_temps.is_empty() && store.budget_bytes() > 0 {
            let table = CostTable::compute(&ctx.pdag, &optimized.mat);
            for (n, temp) in &seeded.built_temps {
                if has_param.contains(n.index()) {
                    continue; // parameter-dependent: never cache
                }
                let (node_cost, fp) =
                    match (table.node_cost.get(n.index()), node_fps.get(n.index())) {
                        (Some(c), Some(f)) => (*c, *f),
                        _ => {
                            return Err(MqoError::invariant(
                                ErrorStage::Session,
                                n.to_string(),
                                "built temp's node is outside the cost/fingerprint tables",
                            ))
                        }
                    };
                let benefit = (node_cost - ctx.pdag.reusecost(*n)).secs();
                offers.push(AdmissionOffer {
                    fp,
                    table: Arc::clone(temp),
                    benefit_secs: benefit,
                    blocks: ctx.pdag.node(*n).blocks,
                });
            }
        }

        // --- Plan reuse: a batch planned before, whose plan reads only
        // warm temps and did not degrade, keeps its plan for next time.
        let keep = matches!(sighting, Sighting::Again(_))
            && !optimized.stats.degraded
            && plan.materialized.is_empty();
        let staged = staged_submit(
            optimized.cost,
            optimized.stats,
            plan,
            seeded.outcome,
            offers,
            warm_fps,
            env_fallback,
        );
        if keep {
            self.plans
                .store(key, CachedPlan::new(batch, epoch, planned));
        }
        Ok(staged)
    }

    /// Stages 1–3 from scratch: expand and physicalize the batch,
    /// fingerprint every physical node, seed the warm set with the
    /// snapshot's live entries, and search with the configured
    /// strategy. The warm seed makes the search spend this batch's
    /// budget on what is not already cached.
    fn plan<'a>(
        &self,
        catalog: &'a Catalog,
        batch: &Batch,
        store: &MvStore,
        deadline: Option<Instant>,
    ) -> Result<Planned<'a>, MqoError> {
        let opt = self.options.opt.with_deadline(deadline);
        let optimizer = Optimizer::with_registry(catalog, opt, self.registry.clone());
        let mut ctx = optimizer.prepare(batch);

        mqo_chaos::hit(Seam::Fingerprint)?;
        let group_fps = mqo_dag::try_group_fingerprints(&ctx.dag)?;
        let node_fps = mqo_physical::node_fingerprints(&ctx.pdag, &group_fps);
        mqo_chaos::hit(Seam::WarmLookup)?;
        let mut has_param = BitSet::new();
        for (idx, node) in ctx.pdag.nodes().iter().enumerate() {
            if ctx.dag.group(node.group).has_param {
                has_param.insert(idx);
            }
        }
        let warm = plan_cache::warm_mask(&node_fps, &has_param, store);
        for idx in warm.iter() {
            ctx.warm.insert(&ctx.pdag, PhysNodeId::from_index(idx));
        }

        let optimized = optimizer.search(&ctx, &self.options.strategy)?;
        Ok(Planned {
            ctx,
            optimized,
            node_fps,
            has_param,
            warm,
        })
    }

    /// Stage 4: executes `plan` over `pdag`, reading warm temps
    /// zero-copy from the snapshot (no stats mutation — hits are
    /// recorded at commit). Returns the outcome, the fingerprints of the
    /// warm temps read, and whether the engine knobs fell back to
    /// defaults.
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &self,
        catalog: &Catalog,
        pdag: &PhysicalDag,
        plan: &ExtractedPlan,
        node_fps: &[Fingerprint],
        params: &FxHashMap<ParamId, Value>,
        store: &MvStore,
        deadline: Option<Instant>,
    ) -> Result<(SeededOutcome, Vec<Fingerprint>, bool), MqoError> {
        let mut seeds: FxHashMap<PhysNodeId, Arc<Table>> = FxHashMap::default();
        let mut warm_fps = Vec::with_capacity(plan.warm_used.len());
        for &w in &plan.warm_used {
            let fp = *node_fps.get(w.index()).ok_or_else(|| {
                MqoError::invariant(
                    ErrorStage::Session,
                    w.to_string(),
                    "plan reads a warm node outside the fingerprint table",
                )
            })?;
            let t = store.peek(fp).ok_or_else(|| {
                MqoError::invariant(
                    ErrorStage::Session,
                    w.to_string(),
                    "plan reads a warm temp that is not live in the store",
                )
            })?;
            seeds.insert(w, t);
            warm_fps.push(fp);
        }
        let (mode, env_fallback) = match self.options.exec_mode {
            Some(mode) => (mode, false),
            None => {
                let (env, fell_back) = ExecOptions::lenient_from_env();
                (env.mode, fell_back)
            }
        };
        // Degrade, don't starve: a budget that already expired during
        // the search would abort every query at its first checkpoint,
        // so an expired deadline is dropped and execution runs
        // ungoverned — the zero-budget submit still answers correctly
        // with the (Volcano-quality) best-so-far plan.
        let exec_deadline = deadline.filter(|&d| Instant::now() < d);
        let exec_opts = ExecOptions {
            mode,
            deadline: exec_deadline,
            mem_budget_bytes: self.options.mem_budget,
        };
        let seeded =
            try_execute_plan_seeded(catalog, pdag, plan, &self.db, params, exec_opts, &seeds)?;
        Ok((seeded, warm_fps, env_fallback))
    }

    /// The [`VerifyLevel::Full`] check of a reuse: plans the batch from
    /// scratch, ungoverned, and requires the stored plan's cost bits,
    /// cold and warm temps and query roots to be the fresh plan's.
    fn verify_reuse(
        &self,
        catalog: &Catalog,
        batch: &Batch,
        seq: u64,
        store: &MvStore,
        cached: &CachedPlan,
    ) -> Result<(), MqoError> {
        let fresh = self.plan(catalog, batch, store, None)?.optimized;
        let (a, b) = (&cached.plan, &fresh.plan);
        let same = cached.cost.secs().to_bits() == fresh.cost.secs().to_bits()
            && a.materialized == b.materialized
            && a.warm_used == b.warm_used
            && a.query_roots == b.query_roots;
        if same {
            return Ok(());
        }
        Err(MqoError::invariant(
            ErrorStage::Session,
            format!("batch {seq}"),
            format!(
                "reused plan differs from a fresh plan of the same batch: cost {} vs {} s, \
                 cold temps {:?} vs {:?}, warm temps {:?} vs {:?}, query roots {:?} vs {:?}",
                cached.cost.secs(),
                fresh.cost.secs(),
                a.materialized,
                b.materialized,
                a.warm_used,
                b.warm_used,
                a.query_roots,
                b.query_roots
            ),
        ))
    }
}

/// Assembles the staged outcome of one executed plan.
fn staged_submit(
    cost: Cost,
    stats: OptStats,
    plan: &ExtractedPlan,
    outcome: ExecOutcome,
    offers: Vec<AdmissionOffer>,
    warm_fps: Vec<Fingerprint>,
    env_fallback: bool,
) -> StagedSubmit {
    let degraded = stats.degraded || outcome.query_errors.iter().any(Option::is_some);
    StagedSubmit {
        result: BatchResult {
            cost,
            stats,
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
        env_fallback,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SessionTotals {
    batches: u64,
    queries: u64,
    cache_hits: u64,
    temps_built: u64,
    plan_reuses: u64,
    est_cost_secs: f64,
    opt_secs: f64,
    exec_secs: f64,
    degraded_submits: u64,
    budget_expiries: u64,
    query_aborts: u64,
    failed_submits: u64,
    rolled_back: u64,
    env_fallbacks: u64,
}

impl MqoSession {
    /// Opens a session over a catalog and a loaded database. The
    /// built-in strategies plus `"KS15-Greedy"` are pre-registered.
    ///
    /// # Panics
    ///
    /// Panics if the KS15 strategy name collides with a built-in name.
    #[must_use]
    pub fn new(catalog: Catalog, db: Database, options: SessionOptions) -> Self {
        let store = MvStore::new(options.mv_budget_bytes);
        // Budget-variable typos were swallowed (leniently) when the
        // options were built; surface them on the session's counter so
        // a misconfigured deploy is visible in `stats()`.
        let totals = SessionTotals {
            env_fallbacks: budgets_from_env().2,
            ..SessionTotals::default()
        };
        MqoSession {
            catalog,
            core: SessionCore::new(db, options),
            store,
            batch_seq: 0,
            totals,
        }
    }

    /// The session's catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the session's catalog, for registering derived
    /// columns (e.g. SQL aggregate outputs) between submits. The
    /// catalog is append-only in practice: plans cached from earlier
    /// batches keep referencing their original column ids. Changing
    /// statistics ([`Catalog::scale_table`]) starts a new
    /// [`Catalog::stats_epoch`], so no stored plan is reused across it.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The session's database.
    #[must_use]
    pub fn database(&self) -> &Database {
        self.core.database()
    }

    /// The session's options.
    pub fn options(&self) -> &SessionOptions {
        self.core.options()
    }

    /// The pure planning core backing this session — the piece the
    /// multi-tenant serving front shares across threads.
    #[must_use]
    pub fn core(&self) -> &SessionCore {
        &self.core
    }

    /// The live materialized-view store (inspection; the session owns
    /// all mutations).
    #[must_use]
    pub fn mv_store(&self) -> &MvStore {
        &self.store
    }

    /// Registers an additional strategy, selectable via
    /// [`SessionOptions::strategy`].
    ///
    /// # Errors
    ///
    /// Fails with kind `DuplicateStrategy` if the name is already taken.
    pub fn register(&mut self, strategy: Arc<dyn Strategy>) -> Result<(), MqoError> {
        self.core.register(strategy)
    }

    /// Unified statistics across every batch submitted so far.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            batches: self.totals.batches,
            queries: self.totals.queries,
            cache_hits: self.totals.cache_hits,
            temps_built: self.totals.temps_built,
            plan_reuses: self.totals.plan_reuses,
            mv: self.store.stats(),
            mv_entries: self.store.len(),
            mv_bytes_used: self.store.bytes_used(),
            mv_budget_bytes: self.store.budget_bytes(),
            est_cost_secs: self.totals.est_cost_secs,
            opt_secs: self.totals.opt_secs,
            exec_secs: self.totals.exec_secs,
            degraded_submits: self.totals.degraded_submits,
            budget_expiries: self.totals.budget_expiries,
            query_aborts: self.totals.query_aborts,
            failed_submits: self.totals.failed_submits,
            rolled_back: self.totals.rolled_back,
            env_fallbacks: self.totals.env_fallbacks,
        }
    }

    /// Drops every cached materialized view and every stored plan
    /// (stats survive) — the next submit runs cold.
    pub fn clear_cache(&mut self) {
        self.store.clear();
        self.core.plans.clear();
    }

    /// Optimizes and executes one batch: expand → search (planning
    /// around the warm cache) → extract → vectorized execute, then
    /// admits this batch's temps into the store.
    ///
    /// The submit is **transactional** with respect to the session's
    /// cross-batch state: admissions land on a staged snapshot of the
    /// [`MvStore`] that replaces the live store only when the whole
    /// pipeline succeeds. On `Err` the session is exactly as it was
    /// before the call and stays fully usable.
    ///
    /// # Errors
    ///
    /// Returns an [`MqoError`] for an unknown strategy, an injected
    /// fault (`mqo-chaos`), or a broken invariant. Budget expiry is
    /// *not* an error: the submit degrades (best-so-far plan, aborted
    /// queries recorded in [`BatchResult::query_errors`]) and returns
    /// `Ok` with [`BatchResult::degraded`] set.
    pub fn submit(&mut self, batch: &Batch) -> Result<BatchResult, MqoError> {
        self.submit_with_params(batch, &FxHashMap::default())
    }

    /// [`MqoSession::submit`] with bindings for `Param` atoms.
    /// Parameter-dependent results are never cached or served from the
    /// cache (their groups are `has_param`), so differing bindings
    /// across submits are safe.
    ///
    /// # Errors
    ///
    /// Same contract as [`MqoSession::submit`].
    pub fn submit_with_params(
        &mut self,
        batch: &Batch,
        params: &FxHashMap<ParamId, Value>,
    ) -> Result<BatchResult, MqoError> {
        let seq = self.batch_seq;
        self.batch_seq += 1;
        // Plan and execute purely against the live store (read-only),
        // then commit by swapping in the committed copy.
        let submit = self
            .core
            .plan_execute(&self.catalog, batch, params, seq, &self.store)
            .and_then(|mut staged| {
                let verify = self.core.options().opt.verify;
                let staged_store = commit(&self.store, &mut staged, seq, verify)?;
                Ok((staged, staged_store))
            });
        match submit {
            Ok((staged, staged_store)) => {
                self.store = staged_store;
                let result = staged.result;
                let aborts = result.query_errors.iter().flatten().count() as u64;
                self.totals.batches += 1;
                self.totals.queries += batch.len() as u64;
                self.totals.cache_hits += result.cache_hits as u64;
                self.totals.temps_built += result.temps_built as u64;
                self.totals.plan_reuses += u64::from(result.plan_reused());
                self.totals.est_cost_secs += result.cost.secs();
                self.totals.opt_secs += result.stats.total_time_secs();
                self.totals.exec_secs += result.exec_wall.as_secs_f64();
                self.totals.degraded_submits += u64::from(result.degraded);
                self.totals.budget_expiries += u64::from(result.stats.degraded) + aborts;
                self.totals.query_aborts += aborts;
                self.totals.env_fallbacks += u64::from(staged.env_fallback);
                Ok(result)
            }
            Err(e) => {
                self.totals.failed_submits += 1;
                self.totals.rolled_back += 1;
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for MqoSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MqoSession")
            .field("strategy", &self.core.options().strategy)
            .field("batches", &self.totals.batches)
            .field("mv_entries", &self.store.len())
            .field("mv_bytes_used", &self.store.bytes_used())
            .finish()
    }
}
