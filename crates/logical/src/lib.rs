//! Logical algebra: plan trees and query batches.
//!
//! Queries enter the optimizer as [`LogicalPlan`] trees over the algebra
//! the paper works with — scan, select, join, aggregate, project. A
//! [`Batch`] groups the queries optimized together under the DAG's
//! pseudo-root; per-query *weights* carry the nested/parameterized query
//! extension of §5 (a weight-`n` query is costed as `n` invocations, and
//! subexpressions that depend on correlation variables are marked by
//! `Param` atoms in their predicates).

mod plan;
mod validate;

pub use plan::{Batch, LogicalPlan, Query};
pub use validate::validate;
