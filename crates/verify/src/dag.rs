//! AND-OR DAG checks: acyclicity, referential integrity, the pseudo-root,
//! subsumption-edge compatibility, the fingerprint collision audit, and
//! the §4.1 sharable-count cross-check.
//!
//! The checkers never trust `topo_order` for reachability — a corrupted
//! DAG's cached order may be stale — and instead walk the op edges from
//! the root themselves.

use crate::{Site, VerifyError, VerifyErrorKind, VerifyStage};
use mqo_dag::{Dag, GroupId, OpKind};
use mqo_util::{FxHashMap, FxHashSet};

fn err(kind: VerifyErrorKind, site: Site, detail: String, message: String) -> VerifyError {
    VerifyError::new(kind, VerifyStage::Dag, site, detail, message)
}

/// One-line description of an op for diagnostics.
fn op_detail(dag: &Dag, o: mqo_dag::OpId) -> String {
    let op = dag.op(o);
    let ins: Vec<String> = dag.op_inputs(o).iter().map(|g| format!("g{g}")).collect();
    format!(
        "op{o}: {}({}) in g{}{}",
        op.kind.name(),
        ins.join(", "),
        dag.op_group(o),
        if op.from_subsumption {
            " [subsumption]"
        } else {
            ""
        }
    )
}

/// Structural checks: acyclicity, link integrity, root well-formedness,
/// subsumption compatibility. Returns every violation found.
#[must_use]
pub fn check_dag(dag: &Dag) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    if dag.topo_order().is_empty() {
        errors.push(err(
            VerifyErrorKind::RootBroken,
            Site::None,
            String::new(),
            "DAG has no root / topological order (renumber never ran)".to_string(),
        ));
        return errors;
    }
    let root = dag.find(dag.root());

    // Reachability + cycle detection: iterative 3-color DFS over the
    // *current* op edges (not the cached topo order).
    let mut color: FxHashMap<GroupId, u8> = FxHashMap::default(); // 1 = visiting, 2 = done
    let mut reachable: Vec<GroupId> = Vec::new();
    let mut cycle = false;
    let children_of = |g: GroupId| -> Vec<GroupId> {
        let mut cs: Vec<GroupId> = dag
            .group_ops(g)
            .flat_map(|o| dag.op_inputs(o))
            .map(|c| dag.find(c))
            .collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    let mut stack: Vec<(GroupId, Vec<GroupId>, usize)> = Vec::new();
    color.insert(root, 1);
    stack.push((root, children_of(root), 0));
    while let Some((g, children, mut cursor)) = stack.pop() {
        let mut descended = false;
        while cursor < children.len() {
            let c = children[cursor];
            cursor += 1;
            match color.get(&c) {
                Some(1) => {
                    if !cycle {
                        errors.push(err(
                            VerifyErrorKind::DagCycle,
                            Site::Group(c),
                            format!("g{c} reached again while still on the DFS stack"),
                            format!("cycle in the AND-OR DAG through group g{c}"),
                        ));
                    }
                    cycle = true;
                }
                Some(_) => {}
                None => {
                    color.insert(c, 1);
                    stack.push((g, children, cursor));
                    stack.push((c, children_of(c), 0));
                    descended = true;
                    break;
                }
            }
        }
        if !descended {
            color.insert(g, 2);
            reachable.push(g);
        }
    }

    // Link integrity over the reachable groups.
    for &g in &reachable {
        let mut alive = 0usize;
        for o in dag.group_ops(g) {
            alive += 1;
            let owner = dag.find(dag.op_group(o));
            if owner != g {
                errors.push(err(
                    VerifyErrorKind::DagLinkBroken,
                    Site::Op(o),
                    op_detail(dag, o),
                    format!("group g{g} lists op{o}, but the op claims owner g{owner}"),
                ));
            }
            for i in dag.op_inputs(o) {
                let i = dag.find(i);
                if !dag.parents_of(i).contains(&o) {
                    errors.push(err(
                        VerifyErrorKind::DagLinkBroken,
                        Site::Op(o),
                        op_detail(dag, o),
                        format!("op{o} reads g{i}, but g{i}'s parent list does not include it"),
                    ));
                }
                // Topological numbering must put children strictly before
                // parents (the incremental cost update relies on it).
                if !cycle && dag.group(i).topo >= dag.group(g).topo && i != g {
                    errors.push(err(
                        VerifyErrorKind::DagLinkBroken,
                        Site::Op(o),
                        op_detail(dag, o),
                        format!(
                            "input g{i} (topo {}) is not numbered before its consumer g{g} (topo {})",
                            dag.group(i).topo,
                            dag.group(g).topo
                        ),
                    ));
                }
            }
        }
        if alive == 0 {
            errors.push(err(
                VerifyErrorKind::DagLinkBroken,
                Site::Group(g),
                format!("g{g}: rows={:.0}, no alive ops", dag.group(g).rows),
                format!("reachable group g{g} has no alive operation"),
            ));
        }
    }

    // Pseudo-root well-formedness.
    let root_ops: Vec<_> = dag
        .group_ops(root)
        .filter(|&o| matches!(dag.op(o).kind, OpKind::Root))
        .collect();
    match root_ops.as_slice() {
        [o] => {
            let arity = dag.op_inputs(*o).len();
            let weights = dag.root_weights();
            if weights.len() != arity {
                errors.push(err(
                    VerifyErrorKind::RootBroken,
                    Site::Op(*o),
                    op_detail(dag, *o),
                    format!(
                        "root op has {arity} query inputs but {} invocation weights",
                        weights.len()
                    ),
                ));
            }
            for (i, &w) in weights.iter().enumerate() {
                if !w.is_finite() || w <= 0.0 {
                    errors.push(err(
                        VerifyErrorKind::RootBroken,
                        Site::Op(*o),
                        op_detail(dag, *o),
                        format!("invocation weight #{i} is {w}; weights must be finite and > 0"),
                    ));
                }
            }
        }
        [] => errors.push(err(
            VerifyErrorKind::RootBroken,
            Site::Group(root),
            format!("root group g{root}"),
            "root group has no alive Root operation".to_string(),
        )),
        many => errors.push(err(
            VerifyErrorKind::RootBroken,
            Site::Group(root),
            format!("root group g{root} with {} Root ops", many.len()),
            "root group has more than one alive Root operation".to_string(),
        )),
    }
    for &g in &reachable {
        if g == root {
            continue;
        }
        for o in dag.group_ops(g) {
            if matches!(dag.op(o).kind, OpKind::Root) {
                errors.push(err(
                    VerifyErrorKind::RootBroken,
                    Site::Op(o),
                    op_detail(dag, o),
                    format!("Root operation outside the root group (g{g})"),
                ));
            }
        }
    }

    // Subsumption edges: §2.1 derivations are unary Select/Aggregate ops
    // whose input covers the same relations as the owner.
    for &g in &reachable {
        for o in dag.group_ops(g) {
            let op = dag.op(o);
            if !op.from_subsumption {
                continue;
            }
            let inputs = dag.op_inputs(o);
            if !matches!(op.kind, OpKind::Select(_) | OpKind::Aggregate { .. }) || inputs.len() != 1
            {
                errors.push(err(
                    VerifyErrorKind::SubsumptionMismatch,
                    Site::Op(o),
                    op_detail(dag, o),
                    "subsumption derivations are unary Select/Aggregate operations".to_string(),
                ));
                continue;
            }
            let src = dag.find(inputs[0]);
            if dag.group(src).relset != dag.group(g).relset {
                errors.push(err(
                    VerifyErrorKind::SubsumptionMismatch,
                    Site::Op(o),
                    op_detail(dag, o),
                    format!(
                        "subsumption source g{src} covers different relations than its owner g{g}"
                    ),
                ));
            }
        }
    }

    errors
}

/// Fingerprint collision audit (`Full` level): no two distinct live
/// canonical groups may share a fingerprint — the cross-batch memo key
/// (`MvStore`, future expansion memoization) would conflate them.
///
/// Assumes [`check_dag`] ran clean (callers gate on it); a structurally
/// broken DAG is reported through the typed fingerprint error instead of
/// a panic.
#[must_use]
pub fn check_fingerprints(dag: &Dag) -> Vec<VerifyError> {
    let mut errors = Vec::new();
    let fps = match mqo_dag::try_group_fingerprints(dag) {
        Ok(fps) => fps,
        Err(e) => {
            errors.push(err(
                VerifyErrorKind::DagLinkBroken,
                Site::None,
                String::new(),
                format!("fingerprinting failed: {}", e.message),
            ));
            return errors;
        }
    };
    let mut by_fp: FxHashMap<u64, Vec<GroupId>> = FxHashMap::default();
    let mut seen: FxHashSet<GroupId> = FxHashSet::default();
    for (&g, &fp) in &fps {
        let g = dag.find(g);
        if seen.insert(g) {
            by_fp.entry(fp).or_default().push(g);
        }
    }
    for (fp, mut groups) in by_fp {
        if groups.len() < 2 {
            continue;
        }
        groups.sort_unstable();
        let list: Vec<String> = groups.iter().map(|g| format!("g{g}")).collect();
        errors.push(err(
            VerifyErrorKind::FingerprintCollision,
            Site::Group(groups[0]),
            format!("fingerprint {fp:#018x} shared by {}", list.join(", ")),
            format!(
                "{} distinct live groups share a canonical fingerprint",
                groups.len()
            ),
        ));
    }
    errors
}

/// Cross-checks a strategy's reported `sharable` statistic against the
/// §4.1 definition (degree of sharing > 1, not the root, not
/// parameterized). A reported value of 0 means the strategy did not
/// compute the statistic (Volcano leaves it unset) and is not checked.
#[must_use]
pub fn check_sharable(dag: &Dag, reported: usize) -> Vec<VerifyError> {
    if reported == 0 {
        return Vec::new();
    }
    let actual = mqo_dag::sharable_groups(dag).len();
    if actual == reported {
        return Vec::new();
    }
    vec![err(
        VerifyErrorKind::SharableMismatch,
        Site::None,
        format!("reported {reported}, recomputed {actual}"),
        format!(
            "reported sharable-group count {reported} disagrees with the §4.1 recount {actual}"
        ),
    )]
}
