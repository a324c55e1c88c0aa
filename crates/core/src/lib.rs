//! Multi-query optimization strategies (the paper's contribution).
//!
//! The crate is organized around an **open dispatch**: every algorithm is
//! a [`Strategy`] — `name()` plus `search(&OptContext, &Options) ->
//! Optimized` — and a [`Registry`] maps names to instances. The
//! [`Optimizer`] session owns catalog, options and registry and exposes
//! the pipeline in stages (`expand` → `physicalize` → `search` →
//! `extract`), so one expanded DAG is searched by many strategies and
//! the stages can be timed separately. New strategies plug in from
//! *outside* this crate (see `mqo-ks15`) via [`Optimizer::register`].
//!
//! Five strategies ship built in:
//!
//! * [`Volcano`] — the baseline: each query individually optimized,
//!   nothing shared.
//! * [`VolcanoSh`] — Figure 2: take the consolidated Volcano best plan
//!   and decide, bottom-up, which of its nodes to materialize
//!   (`matcost/(numuses⁻−1) + reusecost < cost`), with the subsumption
//!   pre-pass and undo.
//! * [`VolcanoRu`] — Figure 3: optimize queries in sequence, tracking
//!   nodes of earlier plans that would be worth materializing if used
//!   once more; later queries may reuse them. Runs both the given and
//!   the reverse order and keeps the cheaper result, then applies
//!   Volcano-SH to the combined plan.
//! * [`Greedy`] — Figure 4: iteratively materialize the candidate with
//!   the greatest benefit, computed with the three §4 optimizations:
//!   sharability pre-filtering, incremental cost update (Figure 5), and
//!   the monotonicity heuristic.
//! * [`Exhaustive`] — enumerates every subset of at most
//!   `MAX_CANDIDATES` = 16 candidates. It is exact only for inputs with
//!   at most 16 candidates; above that it keeps the 16 of highest degree
//!   of sharing and may cost more than Greedy (it does on BQ2–BQ5 and
//!   CQ1–CQ5).

mod consolidated;
mod exhaustive;
mod greedy;
mod optimizer;
mod state;
mod strategy;
mod volcano;
mod volcano_ru;
mod volcano_sh;

pub use consolidated::PlanGraph;
pub use exhaustive::Exhaustive;
pub use greedy::{Greedy, GreedyOptions};
pub use mqo_verify::VerifyLevel;
pub use optimizer::{Expanded, Optimizer};
pub use state::CostState;
pub use strategy::{Registry, Strategy};
pub use volcano::Volcano;
pub use volcano_ru::VolcanoRu;
pub use volcano_sh::VolcanoSh;

use mqo_catalog::Catalog;
use mqo_cost::{Cost, CostParams};
use mqo_dag::{Dag, DagConfig};
use mqo_physical::{ExtractedPlan, MatSet, PhysicalDag};

/// Tuning knobs for the optimizer run.
#[derive(Debug, Clone, Copy, Default)]
#[must_use = "Options is a builder: chain `with_*` calls and pass it to an Optimizer"]
pub struct Options {
    /// DAG construction configuration.
    pub dag: DagConfig,
    /// Cost model parameters.
    pub params: CostParams,
    /// Greedy-specific options (ablation switches of §6.3).
    pub greedy: GreedyOptions,
    /// How much IR verification runs at pipeline stage boundaries
    /// (`mqo-verify`). Defaults to the `MQO_VERIFY` environment variable:
    /// `Boundaries` under `debug_assertions`, `Off` in release builds.
    pub verify: VerifyLevel,
    /// Cooperative wall-clock deadline for the search (the session's
    /// resource governor sets it from `SessionOptions::time_budget`),
    /// read by Greedy and KS15. These anytime strategies check it at
    /// each probe round; on expiry they commit the best materialization set found
    /// so far and flag [`OptStats::degraded`]. `None` (the default)
    /// searches to convergence.
    pub deadline: Option<std::time::Instant>,
}

impl Options {
    /// Paper-default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the DAG construction configuration.
    pub fn with_dag(mut self, dag: DagConfig) -> Self {
        self.dag = dag;
        self
    }

    /// Replaces the cost model parameters.
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// Replaces the greedy ablation switches.
    pub fn with_greedy(mut self, greedy: GreedyOptions) -> Self {
        self.greedy = greedy;
        self
    }

    /// Sets the stage-boundary verification level, overriding the
    /// `MQO_VERIFY`-derived default.
    pub fn with_verify(mut self, verify: VerifyLevel) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the cooperative search deadline (`None` = unbounded).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }
}

/// True when `deadline` is set and already past — the governor check
/// the anytime search loops run at each probe round.
#[inline]
#[must_use]
pub fn deadline_expired(deadline: Option<std::time::Instant>) -> bool {
    deadline.is_some_and(|d| std::time::Instant::now() >= d)
}

/// Counters and sizes recorded during an optimization run (feeds the
/// paper's Figures 9 and 10 and the §6.3 ablations).
#[derive(Debug, Clone, Copy, Default)]
pub struct OptStats {
    /// Wall-clock time of the strategy-independent stages — DAG
    /// expansion plus physical refinement — in seconds. Shared by every
    /// strategy searching the same [`OptContext`].
    pub dag_time_secs: f64,
    /// Wall-clock time of this strategy's search stage, in seconds.
    pub search_time_secs: f64,
    /// Logical DAG size: equivalence nodes.
    pub dag_groups: usize,
    /// Logical DAG size: operation nodes.
    pub dag_ops: usize,
    /// Physical DAG size: nodes.
    pub phys_nodes: usize,
    /// Physical DAG size: ops.
    pub phys_ops: usize,
    /// Number of sharable equivalence nodes (paper §4.1) — the honest
    /// §4.1 count whether or not the pre-filter is enabled (the
    /// no-sharability ablation used to report its full candidate pool
    /// here, mislabeling the stat).
    pub sharable: usize,
    /// Size of the physical candidate pool the strategy actually probed
    /// (one entry per physical variant, warm nodes excluded; grows when
    /// the sharability pre-filter is disabled).
    pub candidates: usize,
    /// Greedy: number of benefit (re)computations — each triggers one
    /// incremental cost recomputation (paper Figure 10, right).
    pub benefit_recomputations: u64,
    /// Incremental update: number of cost propagations across physical
    /// equivalence nodes (paper Figure 10, left). Forward propagations
    /// only: a probe restores the costs it overwrote from a log, and the
    /// restore is not a propagation, so a Greedy probe counts the nodes
    /// its addition re-evaluated and nothing for taking it back.
    pub cost_propagations: u64,
    /// Number of nodes chosen for materialization (cold: computed and
    /// written by this batch's plan).
    pub materialized: usize,
    /// Number of *warm* temps the plan reads from a previous batch's
    /// cache ([`OptContext::warm`]); zero outside a serving session.
    pub warm_reused: usize,
    /// True when the search hit its [`Options::deadline`] and committed
    /// the best-so-far materialization set instead of converging. The
    /// result is still valid and verified — Greedy is an anytime search
    /// (paper §4.4) — just not necessarily as good.
    pub degraded: bool,
    /// True when a serving session answered the batch with a plan it
    /// stored for the same batch earlier (`mqo-session`'s plan reuse):
    /// no expansion, physicalization or search ran, the two timings
    /// are zero, and the counters are those of the stored plan's run.
    pub plan_reused: bool,
}

impl OptStats {
    /// Total optimization time: DAG stages plus search.
    #[must_use]
    pub fn total_time_secs(&self) -> f64 {
        self.dag_time_secs + self.search_time_secs
    }
}

/// The result of one optimization run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The shared plan (materialized temps + per-query plans).
    pub plan: ExtractedPlan,
    /// The chosen materialized set.
    pub mat: MatSet,
    /// `bestcost(Q, M)`: estimated total cost in seconds.
    pub cost: Cost,
    /// Run statistics.
    pub stats: OptStats,
}

/// Everything derived from a batch that the strategies share: the
/// expanded logical DAG and the fully instantiated physical DAG. Built
/// by [`Optimizer::prepare`] and searched by [`Optimizer::search`].
pub struct OptContext<'a> {
    /// The catalog.
    pub catalog: &'a Catalog,
    /// The expanded logical DAG.
    pub dag: Dag,
    /// The physical DAG.
    pub pdag: PhysicalDag,
    /// Cost parameters.
    pub params: CostParams,
    /// Wall-clock seconds spent expanding + physicalizing (stamped onto
    /// [`OptStats::dag_time_secs`] of every search over this context).
    pub dag_time_secs: f64,
    /// Physical nodes already materialized by an earlier batch of the
    /// same session (matched through cross-batch fingerprints — see
    /// `mqo-session`). Strategies seed these into their initial
    /// [`CostState`] at reuse cost and never charge their compute or
    /// materialization again; empty outside a warm-cache session.
    pub warm: MatSet,
}
