//! The AND-OR query DAG (paper §2).
//!
//! An AND-OR DAG compactly represents all alternative plans for a batch of
//! queries. **Equivalence nodes** (groups, the OR-nodes) stand for a result
//! set; **operation nodes** (the AND-nodes) are algebra operators whose
//! inputs are groups. The DAG is built from the initial query trees and
//! *expanded* by transformation rules (join commutativity/associativity
//! with PGLK97-style duplicate avoidance, select push-down); a hashing
//! scheme detects expressions derived more than once and **unifies** their
//! groups, which is what exposes common subexpressions across queries.
//! **Subsumption derivations** (§2.1) add the extra edges that let a
//! stronger selection be computed from a weaker one and sibling aggregates
//! from their union grouping.
//!
//! The batch hangs under a pseudo-root operation whose input edges carry
//! invocation weights — this is how the §5 nested/parameterized query
//! extension enters the search space.

mod build;
mod fingerprint;
mod memo;
mod rules;
mod sharability;
mod subsumption;

pub use fingerprint::{mix as mix_fingerprint, try_group_fingerprints, Fingerprint};
pub use memo::{Dag, Group, GroupId, OpId, OpKind, Operation};
pub use sharability::{degree_of_sharing, sharable_groups};

/// Configuration for DAG construction.
#[derive(Debug, Clone, Copy)]
pub struct DagConfig {
    /// Allow join transformations to create cross products. Off by default
    /// (matches practical optimizers; the paper's queries never need them).
    pub allow_cross_products: bool,
    /// Add subsumption derivations after expansion (paper §2.1).
    pub enable_subsumption: bool,
    /// Safety valve: stop rule application after this many operations.
    pub max_ops: usize,
}

impl Default for DagConfig {
    fn default() -> Self {
        Self {
            allow_cross_products: false,
            enable_subsumption: true,
            max_ops: 2_000_000,
        }
    }
}
