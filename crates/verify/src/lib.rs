//! Staged IR verifier — compiler-style invariant checking over every
//! intermediate representation of the MQO pipeline, in the spirit of
//! LLVM's `-verify` passes.
//!
//! Each pipeline stage carries invariants the paper's correctness
//! silently depends on; this crate makes them machine-checked:
//!
//! | stage | module | invariants |
//! |---|---|---|
//! | logical plan | [`logical`] | column refs resolve, operand types agree, projections ⊆ inputs |
//! | AND-OR DAG | [`dag`] | acyclic, referential integrity, fingerprint collision audit, subsumption compatibility, §4.1 sharable count |
//! | physical DAG | [`physical`] | `sorted_on` propagation justified at every node, link integrity, temp-dep registration |
//! | cost tables | [`cost`] | finite/nonnegative, best-op consistency, totals honest vs. a fresh recompute and the Volcano baseline |
//! | extraction | [`extract`] | warm ∩ cold = ∅, temps built-before-read and exactly once, every read resolvable |
//! | MV cache | [`cache`] | byte accounting balances, budget respected, admit/evict counters consistent |
//!
//! Violations are reported as typed [`VerifyError`]s (never panics from
//! inside the checkers themselves — the verifier must survive arbitrarily
//! broken IR, that is its job), collected into a [`VerifyReport`].
//! Callers at stage boundaries use [`VerifyReport::assert_clean`], which
//! panics with rendered caret diagnostics; `mqo-lint` instead collects
//! reports across whole workloads and exits nonzero.
//!
//! Verification intensity is a [`VerifyLevel`] (`MQO_VERIFY` in the
//! environment): `Off`, `Boundaries` (structural checks at each stage
//! boundary — the default under `debug_assertions`), or `Full`
//! (adds the fingerprint collision audit, the §4.1 sharable cross-check,
//! and the no-sharing baseline comparison).

pub mod cache;
pub mod cost;
pub mod dag;
pub mod extract;
pub mod logical;
pub mod physical;

use mqo_dag::{Dag, GroupId, OpId};
use mqo_physical::{PhysNodeId, PhysOpId, PhysicalDag};
use mqo_util::{render_caret, write_one_line};

mqo_util::named_enum! {
    /// Pipeline stage a diagnostic belongs to.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum VerifyStage {
        /// Logical plan trees (pre-expansion).
        Logical => "logical",
        /// The unified AND-OR DAG.
        Dag => "dag",
        /// The physicalized DAG.
        Physical => "physical",
        /// Cost tables and reported search totals.
        Cost => "cost",
        /// Extracted plans (materialization schedules).
        Extraction => "extraction",
        /// The cross-batch materialized-view cache.
        Cache => "cache",
    }
}

impl std::fmt::Display for VerifyStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

mqo_util::named_enum! {
    /// The typed diagnostics catalog. Every variant is proven live by a
    /// negative test that constructs deliberately broken IR and asserts the
    /// exact kind fires (`crates/verify/tests/negative.rs`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum VerifyErrorKind {
        // -- logical ------------------------------------------------------
        /// A column reference does not resolve against the catalog or the
        /// columns its input subtree produces.
        UnboundColumn => "unbound-column",
        /// Predicate or aggregate operand types disagree (string compared to
        /// a number, `SUM` over a string, arithmetic on a string).
        TypeMismatch => "type-mismatch",
        /// A projection names columns its input does not produce.
        ProjectionNotSubset => "projection-not-subset",
        // -- dag ----------------------------------------------------------
        /// The AND-OR DAG has a cycle reachable from the root.
        DagCycle => "dag-cycle",
        /// Group/op referential integrity is broken: an op not back-linked
        /// from its inputs' parent lists, an op owned by a group that does
        /// not list it, a reachable group with no alive op, or topological
        /// numbers that do not put children before parents.
        DagLinkBroken => "dag-link-broken",
        /// Two distinct live groups share a canonical fingerprint — the
        /// cross-batch memoization key would conflate them.
        FingerprintCollision => "fingerprint-collision",
        /// A subsumption-derived op is not a unary Select/Aggregate over a
        /// group with the owner's relation set (§2.1 derivations relate
        /// expressions over the same relations).
        SubsumptionMismatch => "subsumption-mismatch",
        /// The pseudo-root is malformed: missing, not exactly one alive Root
        /// op, Root ops outside the root group, or invocation weights that
        /// are non-finite, non-positive, or mismatched in arity.
        RootBroken => "root-broken",
        /// A strategy's reported `sharable` statistic disagrees with the
        /// §4.1 definition recomputed from the DAG.
        SharableMismatch => "sharable-mismatch",
        // -- physical -----------------------------------------------------
        /// Physical node/op referential integrity is broken (bad ownership
        /// back-links, inputs not topologically before consumers, a node
        /// with no ops, root weights on a non-root op).
        PhysLinkBroken => "phys-link-broken",
        /// A node promises a sort order no enforcer or order-preserving op
        /// attached to it actually delivers.
        OrderNotJustified => "order-not-justified",
        /// A temp-dependent op is inconsistent: not registered with its
        /// source group's watcher list, carried by an algorithm that takes
        /// no temp, or missing from one that requires it.
        TempDepBroken => "temp-dep-broken",
        // -- cost ---------------------------------------------------------
        /// A cost is NaN or negative, a table's `best_op`/`node_cost` books
        /// disagree with each other, or a cost that must be finite is not.
        CostInvalid => "cost-invalid",
        /// A plan's total is below the sum of the local-cost floors of the
        /// operators it actually runs.
        CostBelowFloor => "cost-below-floor",
        /// A sharing strategy reported a cost above the Volcano no-sharing
        /// baseline — sharing must never lose to independent optimization.
        CostAboveBaseline => "cost-above-baseline",
        /// A reported total understates a fresh bottom-up recomputation
        /// under the same materialized set (seeded warm nodes excluded
        /// exactly once), or a plan's stamped total disagrees with its own
        /// materialization schedule.
        TotalMismatch => "total-mismatch",
        // -- extraction ---------------------------------------------------
        /// A node is scheduled both as a cold materialization and as a warm
        /// cache read, or a warm/cold list escapes its defining set.
        WarmColdOverlap => "warm-cold-overlap",
        /// The materialization schedule builds a temp twice, or a temp's
        /// definition reads a temp that is not built yet (the executor would
        /// silently recompute, diverging from the costed plan).
        TempOrderViolation => "temp-order-violation",
        /// The extracted plan is structurally unsound: missing choices for
        /// referenced nodes, a reuse pointing outside the materialized/warm
        /// sets or at an unsatisfying variant, or a malformed root.
        ExtractionBroken => "extraction-broken",
        // -- cache --------------------------------------------------------
        /// `MvStore` accounting is inconsistent: byte sums, budget, entry
        /// metadata, or admit/evict counters do not balance.
        CacheAccounting => "cache-accounting",
    }
}

/// Which IR object a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Site {
    /// An AND-OR DAG group.
    Group(GroupId),
    /// An AND-OR DAG operation.
    Op(OpId),
    /// A physical node.
    Node(PhysNodeId),
    /// A physical operation.
    PhysOp(PhysOpId),
    /// No single anchoring object (whole-structure checks).
    #[default]
    None,
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Site::Group(g) => write!(f, "g{g}"),
            Site::Op(o) => write!(f, "op{o}"),
            Site::Node(n) => write!(f, "n{n}"),
            Site::PhysOp(o) => write!(f, "p{o}"),
            Site::None => f.write_str("-"),
        }
    }
}

/// One verification diagnostic: the failure class, the stage it was
/// found in, the IR object it anchors to, a one-line description of that
/// object, and the message.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The failure class (match on this in tests).
    pub kind: VerifyErrorKind,
    /// The pipeline stage the check belongs to.
    pub stage: VerifyStage,
    /// The offending IR object.
    pub site: Site,
    /// A rendered one-line description of the offending object, shown as
    /// the "source line" of the caret diagnostic (may be empty).
    pub detail: String,
    /// Human-readable explanation of the violated invariant.
    pub message: String,
}

impl VerifyError {
    /// Builds a diagnostic.
    pub fn new(
        kind: VerifyErrorKind,
        stage: VerifyStage,
        site: Site,
        detail: impl Into<String>,
        message: impl Into<String>,
    ) -> VerifyError {
        VerifyError {
            kind,
            stage,
            site,
            detail: detail.into(),
            message: message.into(),
        }
    }

    /// Renders a caret diagnostic through [`mqo_util::render_caret`],
    /// the shape `SqlError::render` and `MqoError::render` share: the
    /// message, a location line, then the offending object with a caret
    /// run underneath.
    ///
    /// ```text
    /// error[dag-cycle]: cycle through group g3
    ///   --> stage dag, site g3
    ///    | g3: Join(g1, g3)
    ///    | ^^^^^^^^^^^^^^^^
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let site = self.site.to_string();
        let line = if self.detail.is_empty() {
            &site
        } else {
            &self.detail
        };
        render_caret(
            &format!("error[{}]", self.kind.name()),
            &self.message,
            &format!("stage {}, site {site}", self.stage),
            line,
            0,
            line.chars().count(),
        )
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_one_line(f, &self.stage, self.kind.name(), &self.message, &self.site)
    }
}

impl std::error::Error for VerifyError {}

/// A collection of diagnostics from one or more checks.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// The diagnostics, in discovery order.
    pub errors: Vec<VerifyError>,
}

impl VerifyReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> VerifyReport {
        VerifyReport::default()
    }

    /// Wraps a list of diagnostics.
    #[must_use]
    pub fn from_errors(errors: Vec<VerifyError>) -> VerifyReport {
        VerifyReport { errors }
    }

    /// Absorbs another batch of diagnostics.
    pub fn extend(&mut self, errors: Vec<VerifyError>) {
        self.errors.extend(errors);
    }

    /// True when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Number of diagnostics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// True when the report holds no diagnostics (same as
    /// [`VerifyReport::is_clean`]; present for iterator-style callers).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// True if any diagnostic has the given kind.
    #[must_use]
    pub fn has(&self, kind: VerifyErrorKind) -> bool {
        self.errors.iter().any(|e| e.kind == kind)
    }

    /// Renders every diagnostic, blank-line separated.
    pub fn render(&self) -> String {
        self.errors
            .iter()
            .map(VerifyError::render)
            .collect::<Vec<_>>()
            .join("\n\n")
    }

    /// Panics with the rendered diagnostics if the report is not clean.
    /// `context` names the stage boundary for the panic message.
    ///
    /// # Panics
    ///
    /// When the report contains any diagnostic — that is the point.
    pub fn assert_clean(&self, context: &str) {
        assert!(
            self.is_clean(),
            "IR verification failed at {context} ({} error{}):\n{}",
            self.len(),
            if self.len() == 1 { "" } else { "s" },
            self.render()
        );
    }
}

/// How much verification runs at pipeline stage boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyLevel {
    /// No verification.
    Off,
    /// Structural checks at every stage boundary (logical, DAG links and
    /// acyclicity, physical links and order justification, cost honesty,
    /// extraction soundness, cache accounting).
    Boundaries,
    /// Everything in `Boundaries` plus the expensive audits: the
    /// fingerprint collision audit, the §4.1 sharable cross-check, and
    /// the Volcano no-sharing baseline comparison.
    Full,
}

impl VerifyLevel {
    /// Reads `MQO_VERIFY` (`off`/`0`, `boundaries`/`on`/`1`, `full`/`2`),
    /// parsed **once per process**; unset defaults to `Boundaries` under
    /// `debug_assertions` and `Off` in release builds.
    ///
    /// # Panics
    ///
    /// On a malformed `MQO_VERIFY` value — a typo'd knob silently running
    /// with verification off would report green for a leg that never
    /// verified anything.
    pub fn from_env() -> VerifyLevel {
        static CACHED: std::sync::OnceLock<VerifyLevel> = std::sync::OnceLock::new();
        *CACHED.get_or_init(Self::read_env)
    }

    /// Parses the environment directly, bypassing the process-lifetime
    /// cache (tests that mutate `MQO_VERIFY` mid-process want this).
    ///
    /// # Panics
    ///
    /// On a malformed `MQO_VERIFY` value.
    #[must_use]
    pub fn read_env() -> VerifyLevel {
        match std::env::var("MQO_VERIFY").ok().as_deref() {
            Some("off") | Some("0") => VerifyLevel::Off,
            Some("boundaries") | Some("on") | Some("1") => VerifyLevel::Boundaries,
            Some("full") | Some("2") => VerifyLevel::Full,
            None | Some("") => {
                if cfg!(debug_assertions) {
                    VerifyLevel::Boundaries
                } else {
                    VerifyLevel::Off
                }
            }
            Some(other) => {
                panic!("MQO_VERIFY must be `off`, `boundaries`, or `full`, got `{other}`")
            }
        }
    }

    /// True when any checking should run.
    #[must_use]
    pub fn enabled(self) -> bool {
        self != VerifyLevel::Off
    }

    /// True when the expensive `Full`-only audits should run.
    #[must_use]
    pub fn is_full(self) -> bool {
        self == VerifyLevel::Full
    }
}

impl Default for VerifyLevel {
    /// The environment-selected level ([`VerifyLevel::from_env`]).
    fn default() -> VerifyLevel {
        VerifyLevel::from_env()
    }
}

// ----------------------------------------------------------------------
// Stage-boundary facades. Each returns an empty report at `Off` so
// callers can wire them unconditionally.

/// Verifies a logical batch against the catalog.
#[must_use]
pub fn verify_batch(
    batch: &mqo_logical::Batch,
    catalog: &mqo_catalog::Catalog,
    level: VerifyLevel,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    if !level.enabled() {
        return report;
    }
    for q in &batch.queries {
        report.extend(logical::check_plan(&q.plan, catalog));
    }
    report
}

/// Verifies the expanded AND-OR DAG; `Full` adds the fingerprint
/// collision audit.
#[must_use]
pub fn verify_dag(dag: &Dag, level: VerifyLevel) -> VerifyReport {
    let mut report = VerifyReport::new();
    if !level.enabled() {
        return report;
    }
    report.extend(dag::check_dag(dag));
    if level.is_full() && report.is_clean() {
        report.extend(dag::check_fingerprints(dag));
    }
    report
}

/// Verifies the physicalized DAG (links, order justification, temp-dep
/// registration).
#[must_use]
pub fn verify_pdag(
    dag: &Dag,
    pdag: &PhysicalDag,
    catalog: &mqo_catalog::Catalog,
    level: VerifyLevel,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    if !level.enabled() {
        return report;
    }
    report.extend(physical::check_pdag(dag, pdag, catalog));
    report
}

/// Verifies a search result: cost honesty of the reported total, the
/// extracted plan's structural soundness, and (at `Full`) the no-sharing
/// baseline comparison plus the §4.1 sharable cross-check.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn verify_result(
    dag: &Dag,
    pdag: &PhysicalDag,
    plan: &mqo_physical::ExtractedPlan,
    mat: &mqo_physical::MatSet,
    warm: &mqo_physical::MatSet,
    reported: mqo_cost::Cost,
    reported_sharable: usize,
    level: VerifyLevel,
) -> VerifyReport {
    let mut report = VerifyReport::new();
    if !level.enabled() {
        return report;
    }
    let fresh = mqo_physical::CostTable::compute(pdag, mat);
    report.extend(cost::check_cost_table(pdag, &fresh, mat));
    report.extend(cost::check_reported_total(
        pdag, &fresh, mat, warm, reported,
    ));
    report.extend(extract::check_plan(pdag, &fresh, plan, mat, warm, reported));
    if level.is_full() {
        report.extend(cost::check_against_baseline(pdag, reported));
        report.extend(dag::check_sharable(dag, reported_sharable));
    }
    report
}

/// Verifies the materialized-view cache accounting.
#[must_use]
pub fn verify_store(store: &mqo_exec::MvStore, level: VerifyLevel) -> VerifyReport {
    let mut report = VerifyReport::new();
    if !level.enabled() {
        return report;
    }
    report.extend(cache::check_store(store));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shape_matches_sql_errors() {
        let err = VerifyError::new(
            VerifyErrorKind::DagCycle,
            VerifyStage::Dag,
            Site::None,
            "g3: Join(g1, g3)",
            "cycle through group g3",
        );
        let out = err.render();
        assert!(
            out.starts_with("error[dag-cycle]: cycle through group g3"),
            "{out}"
        );
        assert!(out.contains("--> stage dag"), "{out}");
        assert!(out.contains("| ^^^^"), "{out}");
    }

    #[test]
    fn report_collects_and_asserts() {
        let mut r = VerifyReport::new();
        assert!(r.is_clean());
        r.extend(vec![VerifyError::new(
            VerifyErrorKind::CacheAccounting,
            VerifyStage::Cache,
            Site::None,
            "",
            "bytes off",
        )]);
        assert!(r.has(VerifyErrorKind::CacheAccounting));
        assert!(!r.has(VerifyErrorKind::DagCycle));
        let msg = std::panic::catch_unwind(|| r.assert_clean("test")).expect_err("must panic");
        let s = msg.downcast_ref::<String>().expect("string panic");
        assert!(s.contains("bytes off"), "{s}");
    }

    #[test]
    fn level_ordering() {
        assert!(VerifyLevel::Off < VerifyLevel::Boundaries);
        assert!(VerifyLevel::Boundaries < VerifyLevel::Full);
        assert!(VerifyLevel::Full.enabled() && VerifyLevel::Full.is_full());
        assert!(!VerifyLevel::Off.enabled());
    }
}
