//! Subsumption derivations (paper §2.1).
//!
//! After expansion, sibling selections over the same input are linked:
//! a stronger range selection gains a derivation from the weaker one
//! (`σ_{A<5}(E) ≡ σ_{A<5}(σ_{A<10}(E))`), equality selections gain a shared
//! disjunction node (`σ_{A=5∨A=10}(E)`), and sibling aggregations over the
//! same input gain derivations from the union group-by. Operations added
//! here are flagged `from_subsumption`: the basic Volcano search would
//! never pick them (they cost strictly more locally), so the MQO
//! algorithms give them special treatment (Volcano-SH's pre-pass, greedy's
//! benefit computation).

use crate::build::lazy_props;
use crate::memo::{Dag, GroupId, OpId, OpKind};
use mqo_catalog::ColId;
use mqo_cost::Estimator;
use mqo_expr::{AggExpr, AggFunc, Atom, CmpOp, Predicate, ScalarExpr, Value};
use mqo_util::FxHashMap;

/// Adds all subsumption derivations to the DAG.
pub(crate) fn add_derivations(dag: &mut Dag, est: &Estimator<'_>) {
    add_select_derivations(dag, est);
    add_aggregate_derivations(dag, est);
}

/// Sibling selections over the same `(input group, column)` site:
/// `(op, comparison, constant, owning group)` per entry.
type SelectSites = FxHashMap<(GroupId, ColId), Vec<(OpId, CmpOp, Value, GroupId)>>;

fn add_select_derivations(dag: &mut Dag, est: &Estimator<'_>) {
    let mut by_site: SelectSites = FxHashMap::default();
    for idx in 0..dag.ops_allocated() {
        let oid = OpId::from_index(idx);
        let op = dag.op(oid);
        if !op.alive || op.from_subsumption {
            continue;
        }
        let OpKind::Select(pred) = &op.kind else {
            continue;
        };
        let Some((col, cmp, val)) = pred.as_single_cmp() else {
            continue;
        };
        let val = val.clone();
        let input = dag.op_inputs(oid)[0];
        let group = dag.op_group(oid);
        by_site
            .entry((input, col))
            .or_default()
            .push((oid, cmp, val, group));
    }

    for ((input, col), entries) in mqo_util::into_sorted_entries(by_site) {
        if entries.len() < 2 {
            continue;
        }
        // --- Range subsumption: derive the stronger from the weaker.
        for (_, cmp_i, val_i, group_i) in &entries {
            let pred_i = Predicate::atom(Atom::cmp(col, *cmp_i, val_i.clone()));
            for (_, cmp_j, val_j, group_j) in &entries {
                let pred_j = Predicate::atom(Atom::cmp(col, *cmp_j, val_j.clone()));
                let gi = dag.find(*group_i);
                let gj = dag.find(*group_j);
                if gi == gj {
                    continue;
                }
                // i strictly stronger than j: σ_i(E) = σ_i(σ_j(E))
                if pred_i.implies(&pred_j) && !pred_j.implies(&pred_i) {
                    dag.insert_op(
                        OpKind::Select(pred_i.clone()),
                        vec![gj],
                        Some(gi),
                        true,
                        false,
                    );
                }
            }
        }
        // --- Equality disjunction: one shared node for all `col = v_k`.
        let eqs: Vec<(Value, GroupId)> = entries
            .iter()
            .filter(|(_, cmp, _, _)| *cmp == CmpOp::Eq)
            .map(|(_, _, v, g)| (v.clone(), *g))
            .collect();
        let distinct_vals = {
            let mut vs: Vec<&Value> = eqs.iter().map(|(v, _)| v).collect();
            vs.sort_by(|a, b| a.sort_cmp(b));
            vs.dedup();
            vs.len()
        };
        if eqs.len() >= 2 && distinct_vals >= 2 {
            let disj = eqs
                .iter()
                .map(|(v, _)| Predicate::atom(Atom::cmp(col, CmpOp::Eq, v.clone())))
                .reduce(|a, b| a.or(&b))
                .expect("non-empty");
            let kind = OpKind::Select(disj);
            let (g_disj, _, _) = dag.insert_expr(kind, vec![input], lazy_props(est), true, false);
            for (v, g_eq) in eqs {
                let g_eq = dag.find(g_eq);
                if g_eq == dag.find(g_disj) {
                    continue;
                }
                let pred = Predicate::atom(Atom::cmp(col, CmpOp::Eq, v));
                dag.insert_op(OpKind::Select(pred), vec![g_disj], Some(g_eq), true, false);
            }
        }
    }
}

/// Reaggregation function when computing an aggregate from a finer
/// grouping: `sum` of partial sums/counts, `min` of mins, `max` of maxes.
fn reagg(a: &AggExpr) -> AggExpr {
    let func = match a.func {
        AggFunc::Sum => AggFunc::Sum,
        AggFunc::Min => AggFunc::Min,
        AggFunc::Max => AggFunc::Max,
        AggFunc::Count => AggFunc::Sum,
    };
    AggExpr::new(func, ScalarExpr::col(a.output), a.output)
}

/// Sibling aggregations over the same `(input group, agg list)` site:
/// `(group-by keys, owning group)` per entry.
type AggSites = FxHashMap<(GroupId, Vec<AggExpr>), Vec<(Vec<ColId>, GroupId)>>;

fn add_aggregate_derivations(dag: &mut Dag, est: &Estimator<'_>) {
    let mut by_site: AggSites = FxHashMap::default();
    for idx in 0..dag.ops_allocated() {
        let oid = OpId::from_index(idx);
        let op = dag.op(oid);
        if !op.alive || op.from_subsumption {
            continue;
        }
        let OpKind::Aggregate { keys, aggs } = &op.kind else {
            continue;
        };
        let (keys, aggs) = (keys.clone(), aggs.clone());
        let input = dag.op_inputs(oid)[0];
        let group = dag.op_group(oid);
        by_site
            .entry((input, aggs))
            .or_default()
            .push((keys, group));
    }
    // `Vec<AggExpr>` carries no `Ord` (scalar expressions embed float
    // constants), so `into_sorted_entries` does not apply; order the
    // sites by input group with the Debug rendering of the aggregate
    // list as tiebreak — both are functions of the contents only.
    // mqo-analyze: allow(hash-iteration): drained into `sites` and sorted by (group, Debug render) below — content-only order
    let mut sites: Vec<_> = by_site.into_iter().collect();
    sites.sort_by(|a, b| {
        let ((ga, aa), _) = a;
        let ((gb, ab), _) = b;
        ga.cmp(gb)
            .then_with(|| format!("{aa:?}").cmp(&format!("{ab:?}")))
    });
    for ((input, aggs), mut entries) in sites {
        entries.sort();
        entries.dedup();
        if entries.len() < 2 {
            continue;
        }
        let mut union_keys: Vec<ColId> = entries.iter().flat_map(|(k, _)| k.clone()).collect();
        union_keys.sort_unstable();
        union_keys.dedup();
        // The union node groups by K1 ∪ K2 ∪ …; every sibling derives from
        // it by re-aggregating.
        let union_kind = OpKind::Aggregate {
            keys: union_keys.clone(),
            aggs: aggs.clone(),
        };
        let (g_union, _, _) =
            dag.insert_expr(union_kind, vec![input], lazy_props(est), true, false);
        let re_aggs: Vec<AggExpr> = aggs.iter().map(reagg).collect();
        for (keys, g) in entries {
            if keys == union_keys {
                continue;
            }
            let g = dag.find(g);
            if g == dag.find(g_union) {
                continue;
            }
            let kind = OpKind::Aggregate {
                keys,
                aggs: re_aggs.clone(),
            };
            dag.insert_op(kind, vec![g_union], Some(g), true, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagConfig;
    use mqo_catalog::{Catalog, ColStats, ColType};
    use mqo_logical::{Batch, LogicalPlan, Query};

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        let _ = cat
            .table("e")
            .rows(10_000.0)
            .int_key("k")
            .int_uniform("a", 0, 99)
            .int_uniform("dno", 0, 9)
            .int_uniform("age", 0, 59)
            .int_uniform("sal", 0, 999)
            .build();
        cat
    }

    fn count_subsumption_ops(dag: &Dag) -> usize {
        (0..dag.ops_allocated())
            .map(OpId::from_index)
            .filter(|&o| dag.op(o).alive && dag.op(o).from_subsumption)
            .count()
    }

    #[test]
    fn range_selects_gain_derivation_from_weaker() {
        let cat = setup();
        let e = cat.table_by_name("e").unwrap().id;
        let a = cat.col("e", "a");
        let q1 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Lt, 5i64)));
        let q2 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Lt, 10i64)));
        let dag = Dag::expand(
            &Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
            &cat,
            DagConfig::default(),
        );
        assert_eq!(count_subsumption_ops(&dag), 1, "\n{}", dag.dump());
        // the σ_{a<5} group now has 2 alternatives: from scan, from σ_{a<10}
        let strong = dag
            .topo_order()
            .iter()
            .copied()
            .find(|&g| dag.group_ops(g).count() == 2)
            .expect("strong select group has two ops");
        let has_derivation = dag.group_ops(strong).any(|o| dag.op(o).from_subsumption);
        assert!(has_derivation);
    }

    #[test]
    fn equality_selects_gain_disjunction_node() {
        let cat = setup();
        let e = cat.table_by_name("e").unwrap().id;
        let a = cat.col("e", "a");
        let q1 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Eq, 5i64)));
        let q2 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Eq, 10i64)));
        let before_groups = 4; // scan, σ=5, σ=10, root
        let dag = Dag::expand(
            &Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
            &cat,
            DagConfig::default(),
        );
        // one extra group: the disjunction node
        assert_eq!(dag.num_groups(), before_groups + 1, "\n{}", dag.dump());
        // two derivations hang off it
        assert_eq!(count_subsumption_ops(&dag), 3); // disj node op + 2 derivations
    }

    #[test]
    fn aggregates_gain_union_groupby_derivations() {
        let mut cat = setup();
        let e = cat.table_by_name("e").unwrap().id;
        let (dno, age, sal) = (
            cat.col("e", "dno"),
            cat.col("e", "age"),
            cat.col("e", "sal"),
        );
        let s1 = cat.derived_column("s1", ColType::Float, ColStats::opaque(1000.0));
        let q1 = LogicalPlan::scan(e).aggregate(
            vec![dno],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(sal), s1)],
        );
        let q2 = LogicalPlan::scan(e).aggregate(
            vec![age],
            vec![AggExpr::new(AggFunc::Sum, ScalarExpr::col(sal), s1)],
        );
        let dag = Dag::expand(
            &Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
            &cat,
            DagConfig::default(),
        );
        // groups: scan, G_dno, G_age, G_{dno,age}, root = 5
        assert_eq!(dag.num_groups(), 5, "\n{}", dag.dump());
        // union node op + 2 reaggregation derivations
        assert_eq!(count_subsumption_ops(&dag), 3);
    }

    #[test]
    fn no_derivations_without_siblings() {
        let cat = setup();
        let e = cat.table_by_name("e").unwrap().id;
        let a = cat.col("e", "a");
        let q1 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Lt, 5i64)));
        let dag = Dag::expand(&Batch::single("q1", q1), &cat, DagConfig::default());
        assert_eq!(count_subsumption_ops(&dag), 0);
    }

    #[test]
    fn disabled_subsumption_adds_nothing() {
        let cat = setup();
        let e = cat.table_by_name("e").unwrap().id;
        let a = cat.col("e", "a");
        let q1 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Lt, 5i64)));
        let q2 = LogicalPlan::scan(e).select(Predicate::atom(Atom::cmp(a, CmpOp::Lt, 10i64)));
        let dag = Dag::expand(
            &Batch::of(vec![Query::new("q1", q1), Query::new("q2", q2)]),
            &cat,
            DagConfig {
                enable_subsumption: false,
                ..DagConfig::default()
            },
        );
        assert_eq!(count_subsumption_ops(&dag), 0);
    }
}
