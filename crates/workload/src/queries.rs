//! The paper's queries as plan templates.
//!
//! Table names follow the catalog convention used by the façade:
//! `"lineitem"`, `"part"`, `"synthetic64_r"`, `"synthetic64_s"`.

use crate::dates::date_to_days;
use crate::synthetic::SEL_DOMAIN;
use crate::tpch::{lineitem_cols as l, part_cols as p};
use smartssd_exec::spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec, ScanSpec,
};
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};

/// Catalog name of the LINEITEM table.
pub const LINEITEM: &str = "lineitem";
/// Catalog name of the PART table.
pub const PART: &str = "part";
/// Catalog name of Synthetic64_R.
pub const SYNTH_R: &str = "synthetic64_r";
/// Catalog name of Synthetic64_S.
pub const SYNTH_S: &str = "synthetic64_s";

/// TPC-H Query 6 (paper Section 4.2.1):
///
/// ```sql
/// SELECT SUM(l_extendedprice * l_discount) FROM LINEITEM
/// WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
///   AND l_discount > 0.05 AND l_discount < 0.07 AND l_quantity < 24
/// ```
///
/// Five predicate atoms, selectivity ~0.6%. With the x100 encoding the
/// discount bounds become the integers 5 and 7, and the reported sum is
/// scaled by 100 x 100.
pub fn q6() -> Query {
    let pred = Pred::And(vec![
        Pred::range_half_open(
            l::SHIPDATE,
            date_to_days(1994, 1, 1),
            date_to_days(1995, 1, 1),
        ),
        Pred::between_exclusive(l::DISCOUNT, 5, 7),
        Pred::Cmp(CmpOp::Lt, Expr::col(l::QUANTITY), Expr::lit(24)),
    ]);
    Query {
        name: "TPC-H Q6".into(),
        op: OpTemplate::ScanAgg {
            table: LINEITEM.into(),
            spec: ScanAggSpec {
                pred,
                aggs: vec![AggSpec::sum(
                    Expr::col(l::EXTENDEDPRICE).mul(Expr::col(l::DISCOUNT)),
                )],
            },
        },
        finalize: Finalize::AggRow,
    }
}

/// TPC-H Query 14 (paper Section 4.2.2.2):
///
/// ```sql
/// SELECT 100 * SUM(CASE WHEN p_type LIKE 'PROMO%'
///                       THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
///            / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
/// FROM LINEITEM, PART
/// WHERE l_partkey = p_partkey
///   AND l_shipdate >= '1995-09-01' AND l_shipdate < '1995-10-01'
/// ```
///
/// The plan follows the paper's Figure 6: same shape as the Figure 4 join
/// but with the selection slot replaced by the aggregation — rows probe the
/// PART hash table first and the date filter runs above the join, which is
/// why the paper found this query heavy on device CPU cycles per page.
/// With the x100 encoding, `1 - l_discount` becomes `(100 - l_discount)`;
/// the scale cancels in the ratio.
pub fn q14() -> Query {
    // Joined schema: 16 LINEITEM columns, then the PART payload (p_type)
    // at index 16.
    let p_type_joined = 16usize;
    let revenue = || Expr::col(l::EXTENDEDPRICE).mul(Expr::lit(100).sub(Expr::col(l::DISCOUNT)));
    let promo_case = Expr::Case {
        when: Box::new(Pred::LikePrefix {
            col: p_type_joined,
            prefix: b"PROMO".as_slice().into(),
        }),
        then: Box::new(revenue()),
        otherwise: Box::new(Expr::lit(0)),
    };
    Query {
        name: "TPC-H Q14".into(),
        op: OpTemplate::Join {
            probe: LINEITEM.into(),
            spec: JoinSpec {
                build: BuildSide {
                    table: PART.into(),
                    key_col: p::PARTKEY,
                    payload: vec![p::TYPE],
                },
                probe_key: l::PARTKEY,
                probe_pred: Pred::range_half_open(
                    l::SHIPDATE,
                    date_to_days(1995, 9, 1),
                    date_to_days(1995, 10, 1),
                ),
                filter_first: false,
                output: JoinOutput::Aggregate(vec![
                    AggSpec::sum(promo_case),
                    AggSpec::sum(revenue()),
                ]),
            },
        },
        finalize: Finalize::RatioPct { num: 0, den: 1 },
    }
}

/// TPC-H Query 1 — an *extension* beyond the paper's pushed operators
/// (its Section 5 lists "designing algorithms for various operators that
/// work inside the Smart SSD" as open work; grouped aggregation is the
/// obvious next one):
///
/// ```sql
/// SELECT l_returnflag, l_linestatus,
///        SUM(l_quantity), SUM(l_extendedprice),
///        SUM(l_extendedprice * (1 - l_discount)),
///        SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
///        COUNT(*)
/// FROM LINEITEM
/// WHERE l_shipdate <= date '1998-12-01' - interval '90' day
/// GROUP BY l_returnflag, l_linestatus
/// ```
///
/// Averages are derived by the consumer from the sums and the count. With
/// the x100 encoding the disc-price sums carry a 10^4 scale and the charge
/// sums 10^6.
pub fn q1() -> Query {
    let disc_price = || Expr::col(l::EXTENDEDPRICE).mul(Expr::lit(100).sub(Expr::col(l::DISCOUNT)));
    let charge = || disc_price().mul(Expr::lit(100).add(Expr::col(l::TAX)));
    Query {
        name: "TPC-H Q1".into(),
        op: OpTemplate::GroupAgg {
            table: LINEITEM.into(),
            spec: GroupAggSpec {
                pred: Pred::Cmp(
                    CmpOp::Le,
                    Expr::col(l::SHIPDATE),
                    Expr::lit(date_to_days(1998, 9, 2)),
                ),
                group_by: vec![l::RETURNFLAG, l::LINESTATUS],
                aggs: vec![
                    AggSpec::sum(Expr::col(l::QUANTITY)),
                    AggSpec::sum(Expr::col(l::EXTENDEDPRICE)),
                    AggSpec::sum(disc_price()),
                    AggSpec::sum(charge()),
                    AggSpec::count(),
                ],
            },
        },
        finalize: Finalize::Rows,
    }
}

/// The selection-with-join query of Figures 4 and 5:
///
/// ```sql
/// SELECT S.col_1, R.col_2 FROM Synthetic64_R R, Synthetic64_S S
/// WHERE R.col_1 = S.col_2 AND S.col_3 < [VALUE]
/// ```
///
/// `selectivity` sets `[VALUE]` so that the given fraction of S rows
/// qualifies. Per Figure 4, the selection runs below the join.
pub fn join_query(selectivity: f64) -> Query {
    let cutoff = (SEL_DOMAIN as f64 * selectivity.clamp(0.0, 1.0)) as i64;
    Query {
        name: format!("join sel={:.0}%", selectivity * 100.0).into(),
        op: OpTemplate::Join {
            probe: SYNTH_S.into(),
            spec: JoinSpec {
                build: BuildSide {
                    table: SYNTH_R.into(),
                    key_col: 0,       // R.col_1
                    payload: vec![1], // R.col_2
                },
                probe_key: 1, // S.col_2
                probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(2), Expr::lit(cutoff)),
                filter_first: true,
                output: JoinOutput::Project(vec![ColRef::Probe(0), ColRef::Build(0)]),
            },
        },
        finalize: Finalize::Rows,
    }
}

/// The single-table-scan family from the companion paper \[7\]: scan
/// Synthetic64_S with a selectivity knob, either returning matching rows
/// (projected to `project_cols` columns) or aggregating them.
pub fn scan_sweep(selectivity: f64, with_agg: bool, project_cols: usize) -> Query {
    let cutoff = (SEL_DOMAIN as f64 * selectivity.clamp(0.0, 1.0)) as i64;
    let pred = Pred::Cmp(CmpOp::Lt, Expr::col(2), Expr::lit(cutoff));
    let (op, finalize) = if with_agg {
        (
            OpTemplate::ScanAgg {
                table: SYNTH_S.into(),
                spec: ScanAggSpec {
                    pred,
                    aggs: vec![AggSpec::sum(Expr::col(0)), AggSpec::count()],
                },
            },
            Finalize::AggRow,
        )
    } else {
        (
            OpTemplate::Scan {
                table: SYNTH_S.into(),
                spec: ScanSpec {
                    pred,
                    project: (0..project_cols.clamp(1, 64)).collect(),
                },
            },
            Finalize::Rows,
        )
    };
    Query {
        name: format!(
            "scan sel={:.1}% {}",
            selectivity * 100.0,
            if with_agg { "agg" } else { "rows" }
        )
        .into(),
        op,
        finalize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::synthetic_schema;
    use crate::tpch::{lineitem_schema, part_schema};
    use smartssd_exec::TableRef;
    use smartssd_query::Catalog;
    use smartssd_storage::Layout;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, schema) in [
            (LINEITEM, lineitem_schema()),
            (PART, part_schema()),
            (SYNTH_R, synthetic_schema()),
            (SYNTH_S, synthetic_schema()),
        ] {
            c.register(
                name,
                TableRef {
                    first_lba: 0,
                    num_pages: 100,
                    schema,
                    layout: Layout::Nsm,
                },
            );
        }
        c
    }

    #[test]
    fn q6_resolves_and_has_five_atoms() {
        let q = q6();
        q.resolve(&catalog()).unwrap();
        if let OpTemplate::ScanAgg { spec, .. } = &q.op {
            assert_eq!(spec.pred.num_atoms(), 5, "the paper counts 5 predicates");
        } else {
            panic!("q6 must be a scan-aggregate");
        }
    }

    #[test]
    fn q14_resolves_with_joined_schema_reference() {
        // p_type lives at joined index 16; resolution validates that.
        q14().resolve(&catalog()).unwrap();
    }

    #[test]
    fn q14_is_probe_first_per_figure6() {
        if let OpTemplate::Join { spec, .. } = q14().op {
            assert!(!spec.filter_first);
        } else {
            panic!("q14 must be a join");
        }
    }

    #[test]
    fn join_query_is_filter_first_per_figure4() {
        let q = join_query(0.01);
        q.resolve(&catalog()).unwrap();
        if let OpTemplate::Join { spec, .. } = &q.op {
            assert!(spec.filter_first);
            assert_eq!(spec.probe_pred.num_atoms(), 1);
        } else {
            panic!("must be a join");
        }
    }

    #[test]
    fn join_query_selectivity_monotone_in_cutoff() {
        // Higher selectivity -> larger literal cutoff.
        let extract = |q: &Query| -> i64 {
            if let OpTemplate::Join { spec, .. } = &q.op {
                if let Pred::Cmp(_, _, Expr::Lit(v)) = spec.probe_pred {
                    return v;
                }
            }
            panic!("unexpected shape");
        };
        assert!(extract(&join_query(0.01)) < extract(&join_query(0.5)));
        assert!(extract(&join_query(0.5)) < extract(&join_query(1.0)));
    }

    #[test]
    fn scan_sweep_variants_resolve() {
        scan_sweep(0.001, true, 0).resolve(&catalog()).unwrap();
        scan_sweep(0.1, false, 4).resolve(&catalog()).unwrap();
        scan_sweep(1.0, false, 64).resolve(&catalog()).unwrap();
    }

    #[test]
    fn q1_resolves_and_groups_on_flag_status() {
        let q = q1();
        q.resolve(&catalog()).unwrap();
        if let OpTemplate::GroupAgg { spec, .. } = &q.op {
            assert_eq!(spec.group_by, vec![8, 9]); // returnflag, linestatus
            assert_eq!(spec.aggs.len(), 5);
        } else {
            panic!("q1 must be a grouped aggregation");
        }
        assert!(q.describe_pushdown().contains("GroupAggregate"));
    }

    #[test]
    fn plan_descriptions_render() {
        assert!(q6().describe_pushdown().contains("Aggregate"));
        let d14 = q14().describe_pushdown();
        // Figure 6 ordering: filter appears above the hash join.
        assert!(d14.find("Filter").unwrap() < d14.find("HashJoin").unwrap());
    }
}
