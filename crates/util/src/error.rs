//! The unified recoverable error of the MQO pipeline: [`MqoError`].
//!
//! Before the robustness layer, every malformed plan, missing temp, or
//! exhausted budget was a panic buried in a hot path — acceptable for a
//! figure binary, fatal for a serving session. [`MqoError`] is the one
//! typed currency every stage speaks: staged (like `mqo-verify`'s
//! `VerifyError`), kinded (match on [`MqoErrorKind`] in tests and retry
//! logic), and rendered in the same caret style as the verifier and the
//! SQL front end, so a failed `submit` reads like a compiler diagnostic
//! rather than a backtrace.
//!
//! The type lives in `mqo-util` — the lowest layer — so `mqo-core`
//! (search), `mqo-exec` (execution, cache admission), `mqo-session`
//! (the serving facade), and `mqo-chaos` (fault injection) can all
//! construct and propagate it without dependency cycles.

use crate::diagnostic::{render_caret, write_one_line};
use std::fmt;

crate::named_enum! {
    /// Pipeline stage an error belongs to — mirrors `VerifyStage`, but over
    /// the *runtime* pipeline (a serving submit) rather than the IR.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ErrorStage {
        /// DAG expansion / physicalization / fingerprinting.
        Plan => "plan",
        /// The materialization-set search (any strategy).
        Search => "search",
        /// Plan extraction from a converged state.
        Extract => "extract",
        /// Plan execution (temp builds and query evaluation).
        Execute => "execute",
        /// MV-store admission/eviction.
        Admission => "admission",
        /// Session-level orchestration (warm lookup, store verification).
        Session => "session",
        /// The multi-tenant serving front: batch forming, snapshot reads,
        /// commits, and the TCP protocol.
        Serve => "serve",
    }
}

impl fmt::Display for ErrorStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

crate::named_enum! {
    /// The failure taxonomy. Every variant is either produced by a
    /// converted panic path, the resource governor, or an injected fault —
    /// see DESIGN.md's "Robustness layer" table for the catalog.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MqoErrorKind {
        /// No strategy with the requested name is registered.
        UnknownStrategy => "unknown-strategy",
        /// A strategy with this name is already registered.
        DuplicateStrategy => "duplicate-strategy",
        /// The per-submit wall-clock budget expired past the point where
        /// graceful degradation could absorb it (executor mid-query).
        TimeBudgetExpired => "time-budget-expired",
        /// The per-submit memory budget was exceeded by intermediate
        /// results during execution.
        MemBudgetExceeded => "mem-budget-exceeded",
        /// A structurally broken plan was discovered: a logical plan
        /// whose columns are not bound by its inputs, a node with no
        /// recorded choice, a reuse of a never-materialized temp, an
        /// unexecutable pseudo-root.
        PlanBroken => "plan-broken",
        /// A plan reads a warm temp that has no live seed — the cache state
        /// the plan was extracted against is gone.
        MissingSeed => "missing-seed",
        /// A deterministic failpoint (`mqo-chaos`) fired.
        FaultInjected => "fault-injected",
        /// A runtime invariant check failed at a recoverable boundary
        /// (e.g. MV-store accounting after admission).
        InvariantViolated => "invariant-violated",
        /// Canonical fingerprinting of the expanded DAG failed, so
        /// cross-batch cache identity cannot be established.
        FingerprintUnstable => "fingerprint-unstable",
        /// A malformed or out-of-contract frame on the serving protocol
        /// (bad magic, oversized length, unknown opcode, missing Hello).
        Protocol => "protocol",
        /// The serving front is shutting down (or has shut down): the
        /// submission was rejected or abandoned rather than processed.
        Shutdown => "shutdown",
        /// A SQL statement failed to parse or plan; the caret diagnostic is
        /// carried in `detail`.
        Sql => "sql",
        /// A tenant hit its in-flight cap at the batch former — the
        /// submission was rejected for backpressure, not for being wrong.
        Overloaded => "overloaded",
    }
}

/// One recoverable pipeline error: the failure class, the stage it
/// surfaced in, the object or seam it anchors to, a one-line detail
/// shown as the "source line" of the caret diagnostic, and the message.
#[derive(Debug, Clone)]
pub struct MqoError {
    /// The failure class (match on this in tests and retry logic).
    pub kind: MqoErrorKind,
    /// The pipeline stage the failure surfaced in.
    pub stage: ErrorStage,
    /// The offending object or seam (a node id, a seam name, a strategy
    /// name; may be empty).
    pub site: String,
    /// A rendered one-line description shown under the location line
    /// (may be empty — the site is shown instead).
    pub detail: String,
    /// Human-readable explanation.
    pub message: String,
}

impl MqoError {
    /// Builds an error.
    pub fn new(
        kind: MqoErrorKind,
        stage: ErrorStage,
        site: impl Into<String>,
        detail: impl Into<String>,
        message: impl Into<String>,
    ) -> MqoError {
        MqoError {
            kind,
            stage,
            site: site.into(),
            detail: detail.into(),
            message: message.into(),
        }
    }

    /// An injected-fault error: `seam` names the failpoint, `nth` is
    /// how many times that seam had been hit when it fired.
    #[must_use]
    pub fn fault(stage: ErrorStage, seam: &str, nth: u64) -> MqoError {
        MqoError::new(
            MqoErrorKind::FaultInjected,
            stage,
            seam,
            format!("failpoint {seam} fired on hit #{nth}"),
            format!("injected fault at seam `{seam}`"),
        )
    }

    /// A wall-clock budget expiry that could not degrade gracefully.
    #[must_use]
    pub fn time_budget(stage: ErrorStage, site: impl Into<String>) -> MqoError {
        MqoError::new(
            MqoErrorKind::TimeBudgetExpired,
            stage,
            site,
            "",
            "per-submit time budget expired",
        )
    }

    /// A memory budget violation during execution.
    #[must_use]
    pub fn mem_budget(site: impl Into<String>, used: usize, budget: usize) -> MqoError {
        MqoError::new(
            MqoErrorKind::MemBudgetExceeded,
            ErrorStage::Execute,
            site,
            format!("{used} bytes of intermediates against a budget of {budget}"),
            "per-submit memory budget exceeded",
        )
    }

    /// A structurally broken plan discovered at run time.
    #[must_use]
    pub fn plan_broken(site: impl Into<String>, message: impl Into<String>) -> MqoError {
        MqoError::new(
            MqoErrorKind::PlanBroken,
            ErrorStage::Execute,
            site,
            "",
            message,
        )
    }

    /// A runtime invariant violation at a recoverable boundary.
    #[must_use]
    pub fn invariant(
        stage: ErrorStage,
        site: impl Into<String>,
        message: impl Into<String>,
    ) -> MqoError {
        MqoError::new(MqoErrorKind::InvariantViolated, stage, site, "", message)
    }

    /// A serving-protocol violation (the connection is torn down; the
    /// shared session state is untouched).
    #[must_use]
    pub fn protocol(site: impl Into<String>, message: impl Into<String>) -> MqoError {
        MqoError::new(MqoErrorKind::Protocol, ErrorStage::Serve, site, "", message)
    }

    /// A submission rejected or abandoned because the serving front is
    /// shutting down.
    #[must_use]
    pub fn shutdown(site: impl Into<String>, message: impl Into<String>) -> MqoError {
        MqoError::new(MqoErrorKind::Shutdown, ErrorStage::Serve, site, "", message)
    }

    /// True for governor errors (time or memory budget) — the classes
    /// the executor degrades on (abort the query) instead of failing
    /// the whole submit.
    #[must_use]
    pub fn is_budget(&self) -> bool {
        matches!(
            self.kind,
            MqoErrorKind::TimeBudgetExpired | MqoErrorKind::MemBudgetExceeded
        )
    }

    /// Renders a caret diagnostic through [`render_caret`], the shape
    /// `VerifyError::render` and `SqlError::render` share:
    ///
    /// ```text
    /// error[fault-injected]: injected fault at seam `temp-build`
    ///   --> stage execute, site temp-build
    ///    | failpoint temp-build fired on hit #3
    ///    | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        let site = self.site_or_dash();
        let line = if self.detail.is_empty() {
            site
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

    fn site_or_dash(&self) -> &str {
        if self.site.is_empty() {
            "-"
        } else {
            &self.site
        }
    }
}

impl fmt::Display for MqoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_one_line(
            f,
            &self.stage,
            self.kind.name(),
            &self.message,
            &self.site_or_dash(),
        )
    }
}

impl std::error::Error for MqoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_matches_verifier_caret_shape() {
        let e = MqoError::fault(ErrorStage::Execute, "temp-build", 3);
        let r = e.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("error[fault-injected]: "));
        assert_eq!(lines[1], "  --> stage execute, site temp-build");
        assert!(lines[2].starts_with("   | "));
        assert!(lines[3].trim_start().starts_with('|'));
        let carets = lines[3].trim_start_matches([' ', '|']).trim();
        assert!(carets.chars().all(|c| c == '^'));
        assert_eq!(
            carets.chars().count(),
            lines[2]
                .trim_start_matches([' ', '|'])
                .trim()
                .chars()
                .count()
        );
    }

    #[test]
    fn names_round_trip_through_the_tables() {
        for &k in MqoErrorKind::ALL {
            assert_eq!(MqoErrorKind::from_name(k.name()), Some(k));
        }
        for &s in ErrorStage::ALL {
            assert_eq!(ErrorStage::from_name(&s.to_string()), Some(s));
        }
        assert_eq!(MqoErrorKind::from_name("no-such-kind"), None);
        assert_eq!(ErrorStage::from_name("no-such-stage"), None);
    }

    #[test]
    fn budget_classification() {
        assert!(MqoError::time_budget(ErrorStage::Execute, "q0").is_budget());
        assert!(MqoError::mem_budget("q0", 10, 5).is_budget());
        assert!(!MqoError::plan_broken("n3", "no choice").is_budget());
        assert!(!MqoError::fault(ErrorStage::Search, "cost-propagation", 1).is_budget());
    }

    #[test]
    fn empty_site_renders_dash() {
        let e = MqoError::new(
            MqoErrorKind::UnknownStrategy,
            ErrorStage::Search,
            "",
            "",
            "unknown strategy",
        );
        assert!(e.render().contains("site -"));
        assert!(e.to_string().contains("(at -)"));
    }
}
