//! Plan interpreter: executes an [`ExtractedPlan`] against a database,
//! materializing temps once (in topological order) and reading them at
//! every other use — the compute-once/reuse-many discipline whose cost
//! the optimizer reasons about.
//!
//! Two execution paths share this driver: the **vectorized** default
//! (batched selection vectors over typed columns, [`crate::vops`]) and
//! the legacy **row-at-a-time** path ([`crate::ops`], kept both as a
//! migration shim and as the differential oracle for the batched
//! operators). `MQO_EXEC_MODE=row|vec` selects one from the
//! environment; [`execute_plan_with`] does so explicitly.
//!
//! On the vectorized path a selection (`Filter`, `IndexedSelect`,
//! `TempIndexedSelect`) read directly by a `Project` is pipelined into
//! it: the selection hands over its surviving row indices and the
//! projection gathers only the columns it keeps. A selection that is a
//! temp, a query root or any other operator's input is gathered over
//! its whole schema. Either way every plan node passes the governor
//! checkpoint and the `exec-operator` failpoint once, in plan order;
//! the memory budget is charged only for materialized outputs, so a
//! pipelined selection costs nothing until its projection gathers.

use crate::ops::{self, Params};
use crate::table::{Database, Table};
use crate::vops;
use mqo_catalog::Catalog;
use mqo_chaos::Seam;
use mqo_expr::{Atom, ParamId, Value};
use mqo_physical::{Algo, ChosenOp, ExtractedPlan, PhysNodeId, PhysOp, PhysProp, PhysicalDag};
use mqo_util::{ErrorStage, FxHashMap, MqoError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which operator implementations the engine drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Legacy tuple-at-a-time pull operators (`ops`).
    Row,
    /// Batched columnar operators with selection vectors (`vops`).
    Vectorized,
}

/// Execution-engine knobs.
#[derive(Debug, Clone, Copy)]
#[must_use = "ExecOptions configures an execute_plan_with call; pass it along"]
pub struct ExecOptions {
    /// Operator implementation to drive.
    pub mode: ExecMode,
    /// Cooperative wall-clock deadline (the session's resource governor
    /// sets it). Checked at every operator-evaluation boundary; on
    /// expiry the *query* aborts with a `TimeBudgetExpired` error while
    /// the rest of the batch keeps executing. `None` = unbounded.
    pub deadline: Option<Instant>,
    /// Byte budget for intermediate results. Each materialized operator
    /// output is charged ([`Table::approx_bytes`]); exceeding the budget
    /// aborts the query with `MemBudgetExceeded`. Charging is skipped
    /// entirely when unset — `approx_bytes` walks string columns.
    /// `None` = unbounded.
    pub mem_budget_bytes: Option<usize>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::Vectorized,
            deadline: None,
            mem_budget_bytes: None,
        }
    }
}

impl ExecOptions {
    /// Reads `MQO_EXEC_MODE` (`row` | `vec`, default `vec`) once per
    /// process, strictly: per-plan execution must not re-read the
    /// environment on every call, and a typo'd knob silently running the
    /// default engine would report green for a matrix leg that never
    /// executed. Callers that need per-call knobs (a session's
    /// `SessionOptions`, the parity suites) pass explicit
    /// [`ExecOptions`] — [`execute_plan_with`] never consults the
    /// environment at all.
    ///
    /// # Panics
    ///
    /// Panics if `MQO_EXEC_MODE` is set to an unrecognized value.
    pub fn from_env() -> Self {
        let (opts, fell_back) = Self::lenient_from_env();
        if fell_back {
            let bad = std::env::var("MQO_EXEC_MODE").unwrap_or_default();
            panic!("MQO_EXEC_MODE must be `row` or `vec`, got `{bad}`");
        }
        opts
    }

    /// Like [`ExecOptions::from_env`], but *lenient*: a malformed
    /// `MQO_EXEC_MODE` yields the default engine instead of a panic,
    /// with the second tuple element `true` so the caller can count the
    /// fallback (see `SessionStats::env_fallbacks`). A serving session
    /// must not die to a typo'd environment knob. The one place the
    /// variable's values are matched; cached once per process.
    pub fn lenient_from_env() -> (Self, bool) {
        static CACHED: std::sync::OnceLock<(ExecOptions, bool)> = std::sync::OnceLock::new();
        *CACHED.get_or_init(|| {
            let (mode, fell_back) = match std::env::var("MQO_EXEC_MODE").ok().as_deref() {
                Some("row") => (ExecMode::Row, false),
                Some("vec") | Some("vectorized") | None | Some("") => (ExecMode::Vectorized, false),
                Some(_) => (ExecMode::Vectorized, true),
            };
            let opts = ExecOptions {
                mode,
                ..ExecOptions::default()
            };
            (opts, fell_back)
        })
    }
}

/// The result of executing a plan.
#[derive(Debug)]
pub struct ExecOutcome {
    /// One result table per query, in batch order.
    pub results: Vec<Table>,
    /// Number of temps materialized.
    pub temps_built: usize,
    /// Total rows across all query results.
    pub rows_out: usize,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Per-query governor verdicts, in batch order: `None` for a query
    /// that ran to completion, `Some(err)` (a budget error) for a query
    /// the resource governor aborted — its `results` slot is an empty
    /// placeholder table. Always all-`None` without budgets.
    pub query_errors: Vec<Option<MqoError>>,
}

/// Executes `plan` against `db` with engine knobs from the environment.
/// `params` bind any `Param` atoms (empty for non-parameterized batches).
#[must_use]
pub fn execute_plan(
    catalog: &Catalog,
    pdag: &PhysicalDag,
    plan: &ExtractedPlan,
    db: &Database,
    params: &FxHashMap<ParamId, Value>,
) -> ExecOutcome {
    execute_plan_with(catalog, pdag, plan, db, params, ExecOptions::from_env())
}

/// Executes `plan` against `db` with explicit engine knobs. The plan
/// must not reference warm temps (`plan.warm_used` empty) — plans that
/// read a session cache go through [`try_execute_plan_seeded`].
///
/// # Panics
///
/// Panics (with the rendered [`MqoError`] diagnostic) if the plan reads
/// a warm temp, or if the plan is malformed (missing choices, unbound
/// parameters): outside the serving session a broken plan is a bug, not
/// an input.
#[must_use]
pub fn execute_plan_with(
    catalog: &Catalog,
    pdag: &PhysicalDag,
    plan: &ExtractedPlan,
    db: &Database,
    params: &FxHashMap<ParamId, Value>,
    exec: ExecOptions,
) -> ExecOutcome {
    let seeds = FxHashMap::default();
    match try_execute_plan_seeded(catalog, pdag, plan, db, params, exec, &seeds) {
        Ok(out) => out.outcome,
        Err(e) => panic!("{}", e.render()),
    }
}

/// A seeded execution's results plus the temps it built — the session
/// keeps executing where [`execute_plan_with`] stops: warm temps flow
/// *in* through `seeds`, cold temps flow *out* for cache admission.
#[derive(Debug)]
pub struct SeededOutcome {
    /// The ordinary execution outcome.
    pub outcome: ExecOutcome,
    /// Every temp this execution materialized (the plan's cold temps),
    /// in the plan's topological materialization order — refcounted, so
    /// admitting them to a cache is free of copies.
    pub built_temps: Vec<(PhysNodeId, Arc<Table>)>,
}

/// Executes a (possibly warm) plan: `seeds` provides one table per
/// `plan.warm_used` node — results an earlier batch materialized, here
/// read zero-copy instead of recomputed. The serving session drives
/// this path.
///
/// Failure semantics (the graceful-degradation contract):
///
/// * **Budget errors** (`TimeBudgetExpired` / `MemBudgetExceeded`)
///   abort *queries*, not the batch: a temp-phase expiry skips the
///   remaining temps, and each query that then needs a missing temp —
///   or trips a checkpoint itself — records its error in
///   [`ExecOutcome::query_errors`] with an empty placeholder result.
///   The call still returns `Ok`.
/// * **Structural errors** (`PlanBroken`, `MissingSeed`) and injected
///   faults fail the whole call with `Err` — results computed from a
///   broken plan are not trustworthy.
///
/// # Errors
///
/// `MissingSeed` when `plan.warm_used` references a node absent from
/// `seeds`; `PlanBroken` for malformed plans, a chosen operator whose
/// predicate names a parameter `params` does not bind included (checked
/// before anything runs); `FaultInjected` from `mqo-chaos` seams
/// (`temp-build`, `exec-operator`, `column-alloc`).
pub fn try_execute_plan_seeded(
    catalog: &Catalog,
    pdag: &PhysicalDag,
    plan: &ExtractedPlan,
    db: &Database,
    params: &FxHashMap<ParamId, Value>,
    exec: ExecOptions,
    seeds: &FxHashMap<PhysNodeId, Arc<Table>>,
) -> Result<SeededOutcome, MqoError> {
    let start = Instant::now();
    check_params_bound(pdag, plan, params)?;
    let mut temps: FxHashMap<PhysNodeId, Arc<Table>> = FxHashMap::default();
    for &w in &plan.warm_used {
        let t = seeds.get(&w).ok_or_else(|| {
            MqoError::new(
                mqo_util::MqoErrorKind::MissingSeed,
                ErrorStage::Execute,
                w.to_string(),
                format!("plan reads warm temp of node {w} but no seed was provided"),
                "warm plan node has no live cache seed",
            )
        })?;
        debug_assert!(
            match &pdag.node(w).prop {
                PhysProp::Sorted(keys) => t.sorted_on.starts_with(keys),
                PhysProp::Any => true,
            },
            "seeded temp for node {w} does not satisfy its physical property"
        );
        temps.insert(w, Arc::clone(t));
    }
    let mut ex = Executor {
        catalog,
        pdag,
        plan,
        db,
        params: params.clone(),
        temps,
        exec,
        mem_used: 0,
        budget_stop: None,
    };
    let mut temps_built = 0usize;
    for &m in &plan.materialized {
        mqo_chaos::hit(Seam::TempBuild)?;
        match ex.eval_def(m) {
            Ok(mut t) => {
                if let PhysProp::Sorted(keys) = &pdag.node(m).prop {
                    if !t.sorted_on.starts_with(keys) {
                        t.sort_by(keys);
                    }
                }
                temps_built += 1;
                ex.temps.insert(m, Arc::new(t));
            }
            Err(e) if e.is_budget() => {
                // Degrade: skip the remaining temps; queries that need
                // one inherit this error and abort individually.
                ex.budget_stop = Some(e);
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let built_temps: Vec<(PhysNodeId, Arc<Table>)> = plan
        .materialized
        .iter()
        .filter_map(|&m| ex.temps.get(&m).map(|t| (m, Arc::clone(t))))
        .collect();
    let mut results: Vec<Table> = Vec::with_capacity(plan.query_roots.len());
    let mut query_errors: Vec<Option<MqoError>> = Vec::with_capacity(plan.query_roots.len());
    for &q in &plan.query_roots {
        match ex.eval_use(q) {
            Ok(t) => {
                results.push(t);
                query_errors.push(None);
            }
            Err(e) if e.is_budget() => {
                // Abort the query, not the batch.
                results.push(Table::new(Vec::new(), Vec::new()));
                query_errors.push(Some(e));
            }
            Err(e) => return Err(e),
        }
    }
    let rows_out = results.iter().map(Table::len).sum();
    Ok(SeededOutcome {
        outcome: ExecOutcome {
            temps_built,
            rows_out,
            wall: start.elapsed(),
            results,
            query_errors,
        },
        built_temps,
    })
}

/// Rejects a plan whose chosen operators reference a `Param` that
/// `params` leaves unbound — the operators themselves panic on one.
/// Nodes are visited in id order so the reported parameter is stable.
fn check_params_bound(
    pdag: &PhysicalDag,
    plan: &ExtractedPlan,
    params: &Params,
) -> Result<(), MqoError> {
    for (&n, choice) in mqo_util::sorted_entries(&plan.choices) {
        let &ChosenOp::Compute(op) = choice else {
            continue;
        };
        let pred = match &pdag.op(op).algo {
            Algo::IndexedSelect { pred, .. }
            | Algo::TempIndexedSelect { pred, .. }
            | Algo::Filter { pred }
            | Algo::NestLoopsJoin { pred } => pred,
            Algo::MergeJoin { residual, .. }
            | Algo::IndexedNLJoinBase { residual, .. }
            | Algo::IndexedNLJoinTemp { residual, .. } => residual,
            Algo::TableScan { .. }
            | Algo::Sort { .. }
            | Algo::SortAggregate { .. }
            | Algo::Project { .. }
            | Algo::Root => continue,
        };
        let unbound = pred
            .disjuncts()
            .iter()
            .flat_map(|d| d.atoms())
            .find_map(|a| match a {
                Atom::Param { param, .. } if !params.contains_key(param) => Some(*param),
                _ => None,
            });
        if let Some(param) = unbound {
            return Err(MqoError::plan_broken(
                n.to_string(),
                format!(
                    "operator of node {n} reads parameter :{param}, which the submit does not bind"
                ),
            ));
        }
    }
    Ok(())
}

/// Stateful plan evaluator (temps live across query evaluations).
pub(crate) struct Executor<'a> {
    catalog: &'a Catalog,
    pdag: &'a PhysicalDag,
    plan: &'a ExtractedPlan,
    db: &'a Database,
    params: Params,
    temps: FxHashMap<PhysNodeId, Arc<Table>>,
    exec: ExecOptions,
    /// Bytes of operator output charged so far (only maintained when a
    /// memory budget is armed).
    mem_used: usize,
    /// The budget error that truncated the temp phase, if any; queries
    /// needing a skipped temp inherit it instead of `PlanBroken`.
    budget_stop: Option<MqoError>,
}

impl<'a> Executor<'a> {
    /// Governor checkpoint, run at every operator-evaluation boundary:
    /// deadline first, then the byte budget over charged output.
    fn checkpoint(&self, n: PhysNodeId) -> Result<(), MqoError> {
        if self.exec.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(MqoError::time_budget(ErrorStage::Execute, n.to_string()));
        }
        if let Some(budget) = self.exec.mem_budget_bytes {
            if self.mem_used > budget {
                return Err(MqoError::mem_budget(n.to_string(), self.mem_used, budget));
            }
        }
        Ok(())
    }

    /// Charges a materialized operator output against the memory budget
    /// (a selection its `Project` gathers is never charged; the
    /// projection is). `approx_bytes` walks string payloads, so charging
    /// is skipped entirely when no budget is armed.
    fn charge(&mut self, t: &Table) {
        if self.exec.mem_budget_bytes.is_some() {
            self.mem_used += t.approx_bytes();
        }
    }

    /// The error for a temp the plan promised but the temp phase never
    /// built: the truncating budget error when the governor stopped the
    /// phase, a structural `PlanBroken` otherwise.
    fn missing_temp(&self, site: String, message: String) -> MqoError {
        match &self.budget_stop {
            Some(e) => e.clone(),
            None => MqoError::plan_broken(site, message),
        }
    }

    /// Evaluates a *use* of `n`: read the temp when the plan shares it
    /// (a zero-copy share of the temp's columns).
    fn eval_use(&mut self, n: PhysNodeId) -> Result<Table, MqoError> {
        if let Some(m) = self.plan.reuse_of(n) {
            if let Some(t) = self.temps.get(&m) {
                return Ok(t.as_ref().clone());
            }
        }
        self.eval_def(n)
    }

    /// Evaluates a use of `n` for a `Project`, which gathers only the
    /// columns it keeps: when `n` is a vectorized selection computed
    /// here — neither read from a temp nor itself materialized — its
    /// input and surviving rows come back ungathered. The node still
    /// passes its checkpoint and failpoint; it is not charged, because
    /// its output is never materialized. Any other use is
    /// [`Executor::eval_use`] with no selection.
    fn eval_use_selected(&mut self, n: PhysNodeId) -> Result<(Table, Option<Vec<u32>>), MqoError> {
        let pdag = self.pdag;
        let selection = |o| {
            matches!(
                pdag.op(o).algo,
                Algo::Filter { .. } | Algo::IndexedSelect { .. } | Algo::TempIndexedSelect { .. }
            )
        };
        match self.plan.choices.get(&n) {
            Some(&ChosenOp::Compute(o))
                if self.exec.mode == ExecMode::Vectorized
                    && self.plan.reuse_of(n).is_none()
                    && selection(o) =>
            {
                self.checkpoint(n)?;
                mqo_chaos::hit(Seam::ExecOperator)?;
                self.eval_select(n, pdag.op(o))
            }
            _ => Ok((self.eval_use(n)?, None)),
        }
    }

    /// Evaluates the computing definition of `n`: governor checkpoint,
    /// `exec-operator` failpoint, the operator itself, then the budget
    /// charge for its output.
    fn eval_def(&mut self, n: PhysNodeId) -> Result<Table, MqoError> {
        self.checkpoint(n)?;
        mqo_chaos::hit(Seam::ExecOperator)?;
        let t = self.eval_def_inner(n)?;
        self.charge(&t);
        Ok(t)
    }

    /// The operator dispatch. Errors on a malformed plan: a node with
    /// no recorded choice, a reuse of a node never materialized, an
    /// indexed select over an unclustered table, or an attempt to
    /// execute the pseudo-root.
    fn eval_def_inner(&mut self, n: PhysNodeId) -> Result<Table, MqoError> {
        let op_id = match self.plan.choices.get(&n) {
            Some(&ChosenOp::Compute(o)) => o,
            Some(&ChosenOp::Reuse(m)) => {
                return match self.temps.get(&m) {
                    Some(t) => Ok(t.as_ref().clone()),
                    None => Err(self
                        .missing_temp(m.to_string(), format!("reuse of unmaterialized node {m}"))),
                };
            }
            None => {
                return Err(MqoError::plan_broken(
                    n.to_string(),
                    format!("plan has no choice for node {n}"),
                ))
            }
        };
        // borrowed for 'a, not from `self`: the arms evaluate inputs
        let pdag = self.pdag;
        let op = pdag.op(op_id);
        let inputs = &op.inputs;
        let mode = self.exec.mode;
        match &op.algo {
            Algo::TableScan { table } => {
                let data = self.db.table(*table);
                Ok(match mode {
                    ExecMode::Row => {
                        let sorted = data.sorted_on.clone();
                        let schema = data.schema.clone();
                        let rows = ops::scan(Arc::clone(&data)).collect();
                        let mut t = Table::new(schema, rows);
                        t.sorted_on = sorted;
                        t
                    }
                    // zero-copy: share the base table's columns
                    ExecMode::Vectorized => data.as_ref().clone(),
                })
            }
            Algo::IndexedSelect { .. } | Algo::TempIndexedSelect { .. } | Algo::Filter { .. } => {
                let (input, sel) = self.eval_select(n, op)?;
                let mut t = vops::gather_table(&input, sel.as_deref());
                t.sorted_on = input.sorted_on;
                Ok(t)
            }
            Algo::NestLoopsJoin { pred } => {
                let outer = self.eval_use(inputs[0])?;
                let inner = self.eval_use(inputs[1])?;
                mqo_chaos::hit(Seam::ColumnAlloc)?;
                Ok(match mode {
                    ExecMode::Row => {
                        let mut schema = outer.schema.clone();
                        schema.extend(inner.schema.iter().copied());
                        let rows = ops::nl_join(
                            Box::new(outer.rows()),
                            inner.to_rows(),
                            schema.clone(),
                            pred.clone(),
                            self.params.clone(),
                        )
                        .collect();
                        Table::new(schema, rows)
                    }
                    ExecMode::Vectorized => vops::nl_join(&outer, &inner, pred, &self.params),
                })
            }
            Algo::MergeJoin {
                left_keys,
                right_keys,
                residual,
            } => {
                let mut left = self.eval_use(inputs[0])?;
                let mut right = self.eval_use(inputs[1])?;
                mqo_chaos::hit(Seam::ColumnAlloc)?;
                if !left.sorted_on.starts_with(left_keys) {
                    left.sort_by(left_keys);
                }
                if !right.sorted_on.starts_with(right_keys) {
                    right.sort_by(right_keys);
                }
                let mut t = match mode {
                    ExecMode::Row => {
                        let mut schema = left.schema.clone();
                        schema.extend(right.schema.iter().copied());
                        let rows = ops::merge_join(
                            &left.to_rows(),
                            &left.schema,
                            &right.to_rows(),
                            &right.schema,
                            left_keys,
                            right_keys,
                            residual,
                            &self.params,
                        );
                        Table::new(schema, rows)
                    }
                    ExecMode::Vectorized => vops::merge_join(
                        &left,
                        &right,
                        left_keys,
                        right_keys,
                        residual,
                        &self.params,
                    ),
                };
                t.sorted_on.clone_from(left_keys);
                Ok(t)
            }
            Algo::IndexedNLJoinBase {
                table,
                outer_key,
                inner_key,
                residual,
            } => {
                let outer = self.eval_use(inputs[0])?;
                let inner = self.db.table(*table);
                debug_assert_eq!(inner.sorted_on.first(), Some(inner_key));
                self.indexed_nl(&outer, &inner, *outer_key, residual)
            }
            Algo::IndexedNLJoinTemp {
                source,
                outer_key,
                inner_key,
                residual,
            } => {
                let outer = self.eval_use(inputs[0])?;
                let inner = self.temp_sorted_on(*source, *inner_key)?;
                self.indexed_nl(&outer, &inner, *outer_key, residual)
            }
            Algo::Sort { keys } => {
                let mut input = self.eval_use(inputs[0])?;
                input.sort_by(keys);
                Ok(input)
            }
            Algo::SortAggregate { keys, aggs } => {
                let mut input = self.eval_use(inputs[0])?;
                mqo_chaos::hit(Seam::ColumnAlloc)?;
                if !keys.is_empty() && !input.sorted_on.starts_with(keys) {
                    input.sort_by(keys);
                }
                let mut t = match mode {
                    ExecMode::Row => {
                        let rows = ops::sort_aggregate(&input.to_rows(), &input.schema, keys, aggs);
                        let mut schema = keys.clone();
                        schema.extend(aggs.iter().map(|a| a.output));
                        Table::new(schema, rows)
                    }
                    ExecMode::Vectorized => vops::sort_aggregate(&input, keys, aggs),
                };
                t.sorted_on.clone_from(keys);
                Ok(t)
            }
            Algo::Project { cols } => {
                let (input, sel) = self.eval_use_selected(inputs[0])?;
                let sorted: Vec<_> = input
                    .sorted_on
                    .iter()
                    .take_while(|k| cols.contains(k))
                    .copied()
                    .collect();
                let mut t = match mode {
                    ExecMode::Row => {
                        let rows =
                            ops::project(Box::new(input.rows()), &input.schema, cols).collect();
                        Table::new(cols.clone(), rows)
                    }
                    ExecMode::Vectorized => vops::project(&input, sel.as_deref(), cols),
                };
                t.sorted_on = sorted;
                Ok(t)
            }
            Algo::Root => Err(MqoError::plan_broken(
                n.to_string(),
                "root op is not executable",
            )),
        }
    }

    /// Evaluates selection node `n` — op `op`, a `Filter`,
    /// `IndexedSelect` or `TempIndexedSelect` — short of its gather: the
    /// table it selects from, carrying the output's sort order, and the
    /// surviving rows (`None` = every row). The row engine has no
    /// selections; it returns its output table and `None`.
    fn eval_select(
        &mut self,
        n: PhysNodeId,
        op: &'a PhysOp,
    ) -> Result<(Table, Option<Vec<u32>>), MqoError> {
        let mode = self.exec.mode;
        let (source, col, pred) = match &op.algo {
            Algo::Filter { pred } => {
                let input = self.eval_use(op.inputs[0])?;
                return Ok(match mode {
                    ExecMode::Row => {
                        let rows = ops::filter(
                            Box::new(input.rows()),
                            input.schema.clone(),
                            pred.clone(),
                            self.params.clone(),
                        )
                        .collect();
                        let mut t = Table::new(input.schema.clone(), rows);
                        t.sorted_on = input.sorted_on;
                        (t, None)
                    }
                    ExecMode::Vectorized => {
                        let sel = vops::select(&input, pred, &self.params);
                        (input, sel)
                    }
                });
            }
            Algo::IndexedSelect { table, pred } => {
                let data = self.db.table(*table);
                let col = data.sorted_on.first().copied().ok_or_else(|| {
                    MqoError::plan_broken(
                        n.to_string(),
                        format!("indexed select over unclustered table {table}"),
                    )
                })?;
                (data, col, pred)
            }
            Algo::TempIndexedSelect { source, col, pred } => {
                (self.temp_sorted_on(*source, *col)?, *col, pred)
            }
            _ => {
                return Err(MqoError::plan_broken(
                    n.to_string(),
                    "not a selection operator",
                ))
            }
        };
        Ok(match mode {
            ExecMode::Row => {
                let rows =
                    ops::index_scan(Arc::clone(&source), pred.clone(), col, self.params.clone())
                        .collect();
                let mut t = Table::new(source.schema.clone(), rows);
                t.sorted_on.clone_from(&source.sorted_on);
                (t, None)
            }
            ExecMode::Vectorized => {
                let sel = vops::index_select(&source, pred, col, &self.params);
                (source.as_ref().clone(), Some(sel))
            }
        })
    }

    /// Indexed nested-loops join against a sorted inner table, in the
    /// session's execution mode.
    fn indexed_nl(
        &mut self,
        outer: &Table,
        inner: &Arc<Table>,
        outer_key: mqo_catalog::ColId,
        residual: &mqo_expr::Predicate,
    ) -> Result<Table, MqoError> {
        mqo_chaos::hit(Seam::ColumnAlloc)?;
        Ok(match self.exec.mode {
            ExecMode::Row => {
                let mut schema = outer.schema.clone();
                schema.extend(inner.schema.iter().copied());
                let rows = ops::indexed_nl_join(
                    Box::new(outer.rows()),
                    &outer.schema,
                    Arc::clone(inner),
                    outer_key,
                    residual.clone(),
                    self.params.clone(),
                )
                .collect();
                Table::new(schema, rows)
            }
            ExecMode::Vectorized => {
                vops::indexed_nl_join(outer, inner, outer_key, residual, &self.params)
            }
        })
    }

    /// Finds the materialized temp of `source` sorted with leading
    /// `col`. Errors when no such temp exists — the plan promised a
    /// temp-dependent op its temp and the schedule never built it
    /// (structurally broken plan, or a governor-truncated temp phase).
    fn temp_sorted_on(
        &self,
        source: mqo_dag::GroupId,
        col: mqo_catalog::ColId,
    ) -> Result<Arc<Table>, MqoError> {
        // Key-sorted traversal: when several temps satisfy (group, col),
        // the lowest node id wins deterministically.
        for (&n, t) in mqo_util::sorted_entries(&self.temps) {
            let node = self.pdag.node(n);
            if node.group == source && node.prop.leading_col() == Some(col) {
                return Ok(Arc::clone(t));
            }
        }
        Err(self.missing_temp(
            source.to_string(),
            format!("no materialized temp of group {source} sorted on c{col}"),
        ))
    }
}

// Catalog is currently only consulted by TableScan via Database, but the
// field keeps the door open for richer metadata needs (kept deliberately).
impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("temps", &self.temps.len())
            .field("catalog_tables", &self.catalog.tables().len())
            .finish()
    }
}
