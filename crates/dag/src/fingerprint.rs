//! Canonical cross-batch fingerprints for equivalence nodes.
//!
//! A long-lived serving session (`mqo-session`) keeps materialized
//! results alive *across* batches, but [`GroupId`]s are arena indices —
//! the same logical subexpression gets different ids in different
//! batches, and even within one batch its id depends on insertion order.
//! The fingerprint is the stable name: a content hash of the group's
//! *canonical expression*, computed bottom-up so two batches that expand
//! the same query subtree (over the same [`Catalog`](mqo_catalog)
//! instance — `TableId`/`ColId` stability is what makes the hash
//! portable) agree on the fingerprint of every shared group.
//!
//! Canonicalization rules:
//!
//! * Per group, the fingerprint is the **minimum** over the expression
//!   hashes of its alive operations — invariant under the op insertion
//!   order and under unification merging more alternatives in (the same
//!   rule closure yields the same op set, hence the same minimum).
//! * **Join inputs hash as an unordered pair** (child fingerprints
//!   sorted), so the commutativity rule's `A⋈B`/`B⋈A` twins — which may
//!   or may not both exist depending on which queries seeded the group —
//!   collapse to one hash. Stored tables are column-id addressed, so a
//!   cached `A⋈B` temp serves a `B⋈A` consumer unchanged.
//! * **Subsumption-derived operations are excluded**: they encode what
//!   *other* predicates happened to share a batch (σ₁ computed from a
//!   materialized σ₁∨σ₂), which is batch context, not identity. A group
//!   reachable only through subsumption ops falls back to including
//!   them — it can never match across batches anyway.
//! * The group's sorted output-column set is mixed in as a final guard:
//!   groups with different schemas can never collide.
//!
//! A fingerprint mismatch for logically identical results is a missed
//! cache hit (safe); a collision between different results would be a
//! wrong answer, so the hash is 64-bit and every component (operator
//! kind, predicate structure, table/column ids) feeds it.

use crate::memo::{Dag, GroupId, OpKind};
use mqo_util::{ErrorStage, FxHashMap, FxHasher, MqoError, MqoErrorKind};
use std::hash::{Hash, Hasher};

/// A stable content hash naming a logical result across batches.
pub type Fingerprint = u64;

/// SplitMix64 finalizer — folds `v` into `h` so close inputs land far
/// apart. The one mixing primitive of the fingerprint scheme; layers
/// that extend a group fingerprint (e.g. `mqo-physical` mixing in the
/// physical property) must use this same function so the scheme stays
/// single-sourced.
#[inline]
#[must_use]
pub fn mix(mut h: u64, v: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(v);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Hashes one operation: operator kind (predicates, keys, table ids)
/// plus child fingerprints, join children order-insensitive. `Err`
/// names an input group that has no fingerprint yet.
fn op_fingerprint(
    dag: &Dag,
    op: crate::memo::OpId,
    fps: &FxHashMap<GroupId, Fingerprint>,
) -> Result<u64, GroupId> {
    let kind = &dag.op(op).kind;
    let mut hasher = FxHasher::default();
    kind.hash(&mut hasher);
    let mut h = mix(0xA11_D06, hasher.finish());
    let mut children = Vec::with_capacity(dag.op_inputs(op).len());
    for g in dag.op_inputs(op) {
        match fps.get(&g) {
            Some(&fp) => children.push(fp),
            None => return Err(g),
        }
    }
    if matches!(kind, OpKind::Join(_)) {
        children.sort_unstable();
    }
    for c in children {
        h = mix(h, c);
    }
    Ok(h)
}

/// Computes the fingerprint of every reachable group, children before
/// parents. Deterministic for a given DAG content — independent of
/// thread counts, hash-map iteration, and id numbering.
///
/// # Errors
///
/// Fails with kind `FingerprintUnstable` at the group where the DAG is
/// structurally broken: `topo_order` lists a consumer before one of its
/// input groups (stale or cyclic), or lists a group with no alive
/// operation. Both arise only from memo corruption, which `mqo-verify`
/// reports as a diagnostic rather than a panic.
pub fn try_group_fingerprints(dag: &Dag) -> Result<FxHashMap<GroupId, Fingerprint>, MqoError> {
    let mut fps: FxHashMap<GroupId, Fingerprint> = FxHashMap::default();
    for &g in dag.topo_order() {
        let mut canonical: Option<u64> = None;
        let mut any: Option<u64> = None;
        for o in dag.group_ops(g) {
            let h = op_fingerprint(dag, o, &fps).map_err(|child| {
                unstable(
                    child,
                    format!(
                        "input group g{child} was not fingerprinted before its consumer \
                         (topo order does not list children first)"
                    ),
                )
            })?;
            if !dag.op(o).from_subsumption {
                canonical = Some(canonical.map_or(h, |c: u64| c.min(h)));
            }
            any = Some(any.map_or(h, |c: u64| c.min(h)));
        }
        // Groups reachable only via subsumption derivations still need a
        // (batch-local) name; include the derived ops for those.
        let canonical = match canonical.or(any) {
            Some(c) => c,
            None => {
                return Err(unstable(
                    g,
                    format!("group g{g} has no alive operation to fingerprint"),
                ))
            }
        };
        let grp = dag.group(g);
        let mut fp = mix(canonical, grp.cols.len() as u64);
        for &c in &grp.cols {
            fp = mix(fp, u64::from(c.0));
        }
        fps.insert(g, fp);
    }
    Ok(fps)
}

fn unstable(group: GroupId, message: String) -> MqoError {
    MqoError::new(
        MqoErrorKind::FingerprintUnstable,
        ErrorStage::Plan,
        format!("g{group}"),
        "",
        message,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagConfig;
    use mqo_catalog::Catalog;
    use mqo_expr::{Atom, CmpOp, Predicate};
    use mqo_logical::{Batch, LogicalPlan, Query};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for name in ["fa", "fb", "fc"] {
            let _ = cat
                .table(name)
                .rows(10_000.0)
                .int_key(&format!("{name}k"))
                .int_uniform(&format!("{name}v"), 0, 999)
                .build();
        }
        cat
    }

    fn join_ab(cat: &Catalog) -> LogicalPlan {
        let p = Predicate::atom(Atom::eq_cols(cat.col("fa", "fav"), cat.col("fb", "fbk")));
        LogicalPlan::scan(cat.table_by_name("fa").unwrap().id)
            .join(LogicalPlan::scan(cat.table_by_name("fb").unwrap().id), p)
    }

    fn fp_of_query_root(cat: &Catalog, batch: &Batch, q: usize) -> Fingerprint {
        let dag = Dag::expand(batch, cat, DagConfig::default());
        let fps = try_group_fingerprints(&dag).expect("expanded DAG fingerprints");
        let root_inputs = dag.op_inputs(dag.root_op());
        fps[&root_inputs[q]]
    }

    /// The same subexpression must fingerprint identically when expanded
    /// inside different batches (different group numbering, different
    /// companion queries).
    #[test]
    fn stable_across_batch_contexts() {
        let cat = catalog();
        let ab = join_ab(&cat);
        let solo = Batch::single("q", ab.clone());
        let other = {
            let p = Predicate::atom(Atom::eq_cols(cat.col("fb", "fbv"), cat.col("fc", "fck")));
            LogicalPlan::scan(cat.table_by_name("fb").unwrap().id)
                .join(LogicalPlan::scan(cat.table_by_name("fc").unwrap().id), p)
        };
        let mixed = Batch::of(vec![Query::new("other", other), Query::new("q", ab)]);
        assert_eq!(
            fp_of_query_root(&cat, &solo, 0),
            fp_of_query_root(&cat, &mixed, 1),
            "same subexpression, different batch → same fingerprint"
        );
    }

    /// `A⋈B` and `B⋈A` are the same logical result.
    #[test]
    fn join_commutation_is_canonicalized() {
        let cat = catalog();
        let p = Predicate::atom(Atom::eq_cols(cat.col("fa", "fav"), cat.col("fb", "fbk")));
        let (a, b) = (
            cat.table_by_name("fa").unwrap().id,
            cat.table_by_name("fb").unwrap().id,
        );
        let ab = LogicalPlan::scan(a).join(LogicalPlan::scan(b), p.clone());
        let ba = LogicalPlan::scan(b).join(LogicalPlan::scan(a), p);
        assert_eq!(
            fp_of_query_root(&cat, &Batch::single("x", ab), 0),
            fp_of_query_root(&cat, &Batch::single("x", ba), 0)
        );
    }

    /// Different predicates / different constants must not collide.
    #[test]
    fn different_expressions_differ() {
        let cat = catalog();
        let t = cat.table_by_name("fa").unwrap().id;
        let sel = |k: i64| {
            LogicalPlan::scan(t).select(Predicate::atom(Atom::cmp(
                cat.col("fa", "fav"),
                CmpOp::Lt,
                k,
            )))
        };
        let f1 = fp_of_query_root(&cat, &Batch::single("x", sel(10)), 0);
        let f2 = fp_of_query_root(&cat, &Batch::single("x", sel(11)), 0);
        assert_ne!(f1, f2, "selection constants must separate fingerprints");
        let scan_fp = fp_of_query_root(&cat, &Batch::single("x", LogicalPlan::scan(t)), 0);
        assert_ne!(f1, scan_fp, "σ(A) must not collide with A");
    }

    /// Re-expanding the identical batch yields identical fingerprints for
    /// every group (the cross-batch cache key contract).
    #[test]
    fn deterministic_across_expansions() {
        let cat = catalog();
        let batch = Batch::of(vec![
            Query::new("q1", join_ab(&cat)),
            Query::new("q2", join_ab(&cat)),
        ]);
        let d1 = Dag::expand(&batch, &cat, DagConfig::default());
        let d2 = Dag::expand(&batch, &cat, DagConfig::default());
        let fp = |d: &Dag| try_group_fingerprints(d).expect("expanded DAG fingerprints");
        let (f1, f2) = (fp(&d1), fp(&d2));
        let mut v1: Vec<Fingerprint> = f1.values().copied().collect();
        let mut v2: Vec<Fingerprint> = f2.values().copied().collect();
        v1.sort_unstable();
        v2.sort_unstable();
        assert_eq!(v1, v2);
    }
}
