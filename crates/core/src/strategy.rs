//! The open extension point: the [`Strategy`] trait and the [`Registry`]
//! of named strategies.
//!
//! The paper's title promises *extensible* algorithms; this module is
//! where that promise is kept. A strategy is any type that can search an
//! expanded [`OptContext`] for a shared plan. The built-in algorithms
//! (Volcano, Volcano-SH, Volcano-RU, Greedy, Exhaustive) are ordinary
//! implementations registered by [`Registry::builtin`]; external crates
//! add their own with [`Registry::register`] (or
//! [`crate::Optimizer::register`]) without touching `mqo-core` — see
//! `mqo-ks15` for a complete out-of-crate strategy.

use crate::{OptContext, Optimized, Options};
use mqo_util::{ErrorStage, MqoError, MqoErrorKind};
use std::fmt;
use std::sync::Arc;

/// A pluggable multi-query optimization strategy.
///
/// A strategy consumes a fully expanded [`OptContext`] (logical AND-OR
/// DAG plus physical DAG) and produces an [`Optimized`] result: the
/// chosen materialized set, the extracted shared plan, its estimated
/// cost, and search statistics. Strategies are stateless with respect to
/// a particular batch — per-run tuning arrives through [`Options`] and
/// anything batch-derived lives in the context — so one instance can be
/// reused across batches and shared between threads.
///
/// Implementations do **not** fill the context-derived fields of
/// [`OptStats`](crate::OptStats) (timings and DAG sizes); the
/// [`Optimizer`](crate::Optimizer) session stamps those after `search`
/// returns.
pub trait Strategy: Send + Sync {
    /// Unique display name; doubles as the registry key (e.g.
    /// `"Volcano-SH"`).
    fn name(&self) -> &str;

    /// Searches the expanded context for a shared plan.
    ///
    /// Strategies that honor [`Options::deadline`] degrade rather than
    /// fail on expiry: they commit the best materialization set found
    /// so far, flag it in [`OptStats::degraded`](crate::OptStats), and
    /// return `Ok`. `Err` is reserved for genuine failures — injected
    /// faults (`mqo-chaos`) and broken invariants.
    ///
    /// # Errors
    ///
    /// Returns an [`MqoError`] when the search cannot produce a valid
    /// result (fault injection, invariant violation).
    fn search(&self, ctx: &OptContext<'_>, options: &Options) -> Result<Optimized, MqoError>;
}

/// An ordered collection of named strategies.
///
/// Registration order is preserved (and is the iteration order), so
/// comparison tables keep the paper's column order. Names are unique;
/// registering a duplicate is an error rather than a silent override so
/// a misconfigured experiment fails loudly.
#[derive(Clone, Default)]
pub struct Registry {
    entries: Vec<Arc<dyn Strategy>>,
}

impl Registry {
    /// An empty registry (no strategies, not even the built-ins).
    #[must_use]
    pub fn empty() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// The built-in strategies in the order the paper reports them:
    /// Volcano, Volcano-SH, Volcano-RU, Greedy, then the Exhaustive
    /// oracle.
    ///
    /// # Panics
    ///
    /// Panics if two built-in strategies share a name — a build bug.
    #[must_use]
    pub fn builtin() -> Self {
        let mut r = Registry::empty();
        for s in [
            Arc::new(crate::Volcano) as Arc<dyn Strategy>,
            Arc::new(crate::VolcanoSh),
            Arc::new(crate::VolcanoRu),
            Arc::new(crate::Greedy),
            Arc::new(crate::Exhaustive),
        ] {
            r.register(s).expect("built-in names are unique");
        }
        r
    }

    /// Registers a strategy under its own [`Strategy::name`].
    ///
    /// # Errors
    ///
    /// Fails with kind `DuplicateStrategy` if the name is already taken.
    pub fn register(&mut self, strategy: Arc<dyn Strategy>) -> Result<(), MqoError> {
        let name = strategy.name();
        if self.get(name).is_some() {
            return Err(MqoError::new(
                MqoErrorKind::DuplicateStrategy,
                ErrorStage::Search,
                name,
                "",
                format!("a strategy named {name:?} is already registered"),
            ));
        }
        self.entries.push(strategy);
        Ok(())
    }

    /// Looks a strategy up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Strategy>> {
        self.entries.iter().find(|s| s.name() == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|s| s.name())
    }

    /// Registered strategies, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Strategy>> {
        self.entries.iter()
    }

    /// Number of registered strategies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_paper_order() {
        let r = Registry::builtin();
        let names: Vec<&str> = r.names().collect();
        assert_eq!(
            names,
            [
                "Volcano",
                "Volcano-SH",
                "Volcano-RU",
                "Greedy",
                "Exhaustive"
            ]
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut r = Registry::builtin();
        let before = r.len();
        let err = r.register(Arc::new(crate::Volcano)).unwrap_err();
        assert_eq!(err.kind, MqoErrorKind::DuplicateStrategy);
        assert_eq!(err.site, "Volcano");
        assert_eq!(
            err.message,
            "a strategy named \"Volcano\" is already registered"
        );
        assert_eq!(r.len(), before);
    }

    #[test]
    fn lookup_miss_returns_none() {
        let r = Registry::builtin();
        assert!(r.get("Simulated-Annealing").is_none());
        assert!(Registry::empty().get("Volcano").is_none());
    }
}
