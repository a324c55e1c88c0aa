//! Plan validation: catches malformed workload definitions early.

use crate::LogicalPlan;
use mqo_catalog::{Catalog, ColId};
use mqo_util::{ErrorStage, FxHashSet, MqoError, MqoErrorKind};

/// Validates column bindings and join-schema disjointness in `plan`.
///
/// Parameter atoms are exempt from binding checks: they are resolved by an
/// enclosing query at run time.
///
/// # Errors
///
/// Fails with kind `PlanBroken` at stage `plan`, sited at the offending
/// column, when a predicate, aggregate or projection references a
/// column its input does not produce, or when a join's inputs produce
/// overlapping output schemas (e.g. an unprojected self-reference).
/// Intra-query reuse of a subexpression is legal — the paper's Q2-D
/// depends on it — but the two sides must be projected to disjoint
/// columns so that output rows stay unambiguous.
pub fn validate(plan: &LogicalPlan, catalog: &Catalog) -> Result<(), MqoError> {
    validate_cols(plan, catalog).map(|_| ())
}

fn broken(col: ColId, message: String) -> MqoError {
    MqoError::new(
        MqoErrorKind::PlanBroken,
        ErrorStage::Plan,
        format!("c{col}"),
        "",
        message,
    )
}

fn validate_cols(plan: &LogicalPlan, catalog: &Catalog) -> Result<FxHashSet<ColId>, MqoError> {
    let check = |cols: &[ColId], avail: &FxHashSet<ColId>, at: &str| -> Result<(), MqoError> {
        match cols.iter().find(|c| !avail.contains(c)) {
            Some(&c) => Err(broken(
                c,
                format!("column c{c} not produced by input of {at}"),
            )),
            None => Ok(()),
        }
    };
    match plan {
        LogicalPlan::Scan(t) => Ok(catalog.table_ref(*t).columns.iter().copied().collect()),
        LogicalPlan::Select { pred, input } => {
            let avail = validate_cols(input, catalog)?;
            check(&pred.columns(), &avail, "Select")?;
            Ok(avail)
        }
        LogicalPlan::Join { pred, left, right } => {
            let l = validate_cols(left, catalog)?;
            let r = validate_cols(right, catalog)?;
            if let Some(&col) = l.intersection(&r).next() {
                return Err(broken(
                    col,
                    format!("join inputs both produce column c{col}"),
                ));
            }
            let mut avail = l;
            avail.extend(r);
            check(&pred.columns(), &avail, "Join")?;
            Ok(avail)
        }
        LogicalPlan::Aggregate { keys, aggs, input } => {
            let avail = validate_cols(input, catalog)?;
            check(keys, &avail, "Aggregate keys")?;
            for a in aggs {
                let mut cols = vec![];
                a.arg.collect_cols(&mut cols);
                check(&cols, &avail, "Aggregate arg")?;
            }
            let mut out: FxHashSet<ColId> = keys.iter().copied().collect();
            out.extend(aggs.iter().map(|a| a.output));
            Ok(out)
        }
        LogicalPlan::Project { cols, input } => {
            let avail = validate_cols(input, catalog)?;
            check(cols, &avail, "Project")?;
            Ok(cols.iter().copied().collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqo_catalog::Catalog;
    use mqo_expr::{Atom, CmpOp, Predicate};

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        let _ = cat.table("r").rows(10.0).int_key("rk").build();
        let _ = cat.table("s").rows(10.0).int_key("sk").build();
        cat
    }

    #[test]
    fn valid_plan_passes() {
        let cat = setup();
        let r = cat.table_by_name("r").unwrap().id;
        let s = cat.table_by_name("s").unwrap().id;
        let plan = LogicalPlan::scan(r).join(
            LogicalPlan::scan(s),
            Predicate::atom(Atom::eq_cols(cat.col("r", "rk"), cat.col("s", "sk"))),
        );
        assert!(validate(&plan, &cat).is_ok());
    }

    #[test]
    fn unbound_column_detected() {
        let cat = setup();
        let r = cat.table_by_name("r").unwrap().id;
        let plan = LogicalPlan::scan(r).select(Predicate::atom(Atom::cmp(
            cat.col("s", "sk"),
            CmpOp::Lt,
            5i64,
        )));
        let err = validate(&plan, &cat).unwrap_err();
        assert_eq!(err.kind, MqoErrorKind::PlanBroken);
        assert_eq!(err.stage, ErrorStage::Plan);
        assert_eq!(err.site, format!("c{}", cat.col("s", "sk")));
        assert!(err.message.contains("not produced by input of Select"));
    }

    #[test]
    fn unprojected_self_join_detected() {
        let cat = setup();
        let r = cat.table_by_name("r").unwrap().id;
        let plan = LogicalPlan::scan(r).join(LogicalPlan::scan(r), Predicate::true_());
        let err = validate(&plan, &cat).unwrap_err();
        assert_eq!(err.kind, MqoErrorKind::PlanBroken);
        assert_eq!(
            err.message,
            format!("join inputs both produce column c{}", cat.col("r", "rk"))
        );
    }

    #[test]
    fn projected_intra_query_reuse_is_legal() {
        // the Q2-D pattern: a subexpression used twice, one side projected
        // to derived/disjoint columns
        let mut cat = setup();
        let total = cat.derived_column(
            "total",
            mqo_catalog::ColType::Float,
            mqo_catalog::ColStats::opaque(10.0),
        );
        let r = cat.table_by_name("r").unwrap().id;
        let agg = LogicalPlan::scan(r).aggregate(
            vec![],
            vec![mqo_expr::AggExpr::new(
                mqo_expr::AggFunc::Sum,
                mqo_expr::ScalarExpr::col(cat.col("r", "rk")),
                total,
            )],
        );
        let plan = LogicalPlan::scan(r).join(
            agg,
            Predicate::atom(Atom::col_cmp(cat.col("r", "rk"), CmpOp::Lt, total)),
        );
        assert!(validate(&plan, &cat).is_ok());
    }

    #[test]
    fn projection_narrows_bindings() {
        let cat = setup();
        let r = cat.table_by_name("r").unwrap().id;
        // project away rk, then reference it: invalid
        let plan = LogicalPlan::scan(r)
            .project(vec![])
            .select(Predicate::atom(Atom::cmp(
                cat.col("r", "rk"),
                CmpOp::Eq,
                1i64,
            )));
        assert!(validate(&plan, &cat).is_err());
    }
}
