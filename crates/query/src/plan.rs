//! Query templates, catalog resolution, finalization, and plan printing.

use smartssd_exec::spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec, ScanSpec,
};
use smartssd_exec::{QueryOp, TableRef};
use smartssd_storage::expr::{AggState, Pred};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Table name -> on-device location. The facade registers tables here after
/// loading them.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, TableRef>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table.
    pub fn register(&mut self, name: impl Into<String>, table: TableRef) {
        self.tables.insert(name.into(), table);
    }

    /// Looks up a table.
    pub fn get(&self, name: &str) -> Option<&TableRef> {
        self.tables.get(name)
    }

    /// Registered table names (sorted, for deterministic output).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// A query operator template over *named* tables; becomes a concrete
/// [`QueryOp`] once resolved against a catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpTemplate {
    /// Filter + project scan.
    Scan {
        /// Input table name.
        table: String,
        /// Scan parameters.
        spec: ScanSpec,
    },
    /// Filter + aggregate scan (Q6).
    ScanAgg {
        /// Input table name.
        table: String,
        /// Aggregation parameters.
        spec: ScanAggSpec,
    },
    /// Filter + group-by + aggregate scan (Q1).
    GroupAgg {
        /// Input table name.
        table: String,
        /// Grouped-aggregation parameters.
        spec: GroupAggSpec,
    },
    /// Simple hash join (Figures 4/6).
    Join {
        /// Probe-side (large) table name.
        probe: String,
        /// Build-side (small) table name.
        build: String,
        /// Build key column.
        build_key: usize,
        /// Build payload columns.
        build_payload: Vec<usize>,
        /// Probe key column.
        probe_key: usize,
        /// Predicate over probe rows.
        probe_pred: Pred,
        /// Whether the predicate runs below the join (Figure 4) or above it
        /// (Figure 6).
        filter_first: bool,
        /// Output shape.
        output: JoinOutput,
    },
}

/// How the host turns retrieved aggregate partials into the reported value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Finalize {
    /// Row-stream query: no aggregate finalization.
    Rows,
    /// Report each aggregate's final value.
    AggRow,
    /// Q14's shape: `100 * aggs[num] / aggs[den]` as a float.
    RatioPct {
        /// Numerator aggregate index.
        num: usize,
        /// Denominator aggregate index.
        den: usize,
    },
}

impl Finalize {
    /// Applies the finalization to merged aggregate states.
    pub fn apply(&self, aggs: &[AggState]) -> (Vec<i128>, Option<f64>) {
        let values: Vec<i128> = aggs.iter().map(AggState::finish).collect();
        let scalar = match self {
            Finalize::Rows | Finalize::AggRow => None,
            Finalize::RatioPct { num, den } => {
                let d = values[*den];
                Some(if d == 0 {
                    0.0
                } else {
                    100.0 * values[*num] as f64 / d as f64
                })
            }
        };
        (values, scalar)
    }
}

/// A named query: template + finalization.
///
/// Templates have an identity: two queries are equal (and hash alike) when
/// name, operator tree and finalization all match, which is what lets the
/// serving front door store one template for every tenant that runs it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// Display name ("TPC-H Q6", ...). Shared, so the per-outcome records
    /// that carry it cost a reference-count bump, not a string allocation.
    pub name: Arc<str>,
    /// The operator template.
    pub op: OpTemplate,
    /// Host-side finalization.
    pub finalize: Finalize,
}

/// Resolution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A referenced table is not in the catalog.
    UnknownTable(String),
    /// The resolved operator failed validation.
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            PlanError::Invalid(e) => write!(f, "invalid plan: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Query {
    /// Resolves the template against a catalog into the physical operator
    /// both engines execute.
    pub fn resolve(&self, catalog: &Catalog) -> Result<QueryOp, PlanError> {
        let lookup = |name: &str| {
            catalog
                .get(name)
                .cloned()
                .ok_or_else(|| PlanError::UnknownTable(name.to_string()))
        };
        let op = match &self.op {
            OpTemplate::Scan { table, spec } => QueryOp::Scan {
                table: lookup(table)?,
                spec: spec.clone(),
            },
            OpTemplate::ScanAgg { table, spec } => QueryOp::ScanAgg {
                table: lookup(table)?,
                spec: spec.clone(),
            },
            OpTemplate::GroupAgg { table, spec } => QueryOp::GroupAgg {
                table: lookup(table)?,
                spec: spec.clone(),
            },
            OpTemplate::Join {
                probe,
                build,
                build_key,
                build_payload,
                probe_key,
                probe_pred,
                filter_first,
                output,
            } => QueryOp::Join {
                probe: lookup(probe)?,
                spec: JoinSpec {
                    build: BuildSide {
                        table: lookup(build)?,
                        key_col: *build_key,
                        payload: build_payload.clone(),
                    },
                    probe_key: *probe_key,
                    probe_pred: probe_pred.clone(),
                    filter_first: *filter_first,
                    output: output.clone(),
                },
            },
        };
        op.validate()
            .map_err(|e| PlanError::Invalid(e.to_string()))?;
        Ok(op)
    }

    /// Pretty-prints the plan tree as executed in the Smart SSD, in the
    /// style of the paper's Figures 4 and 6 (host on top, device below).
    pub fn describe_pushdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("-- {} (Smart SSD plan) --\n", self.name));
        s.push_str("HOST:   collect results via GET\n");
        match &self.op {
            OpTemplate::Scan { table, spec } => {
                s.push_str("DEVICE: Project\n");
                s.push_str(&format!(
                    "          Filter [{} atoms]\n",
                    spec.pred.num_atoms()
                ));
                s.push_str(&format!("            Scan {table}\n"));
            }
            OpTemplate::ScanAgg { table, spec } => {
                s.push_str(&format!("DEVICE: Aggregate [{} aggs]\n", spec.aggs.len()));
                s.push_str(&format!(
                    "          Filter [{} atoms]\n",
                    spec.pred.num_atoms()
                ));
                s.push_str(&format!("            Scan {table}\n"));
            }
            OpTemplate::GroupAgg { table, spec } => {
                s.push_str(&format!(
                    "DEVICE: GroupAggregate [{} keys, {} aggs]\n",
                    spec.group_by.len(),
                    spec.aggs.len()
                ));
                s.push_str(&format!(
                    "          Filter [{} atoms]\n",
                    spec.pred.num_atoms()
                ));
                s.push_str(&format!("            Scan {table}\n"));
            }
            OpTemplate::Join {
                probe,
                build,
                probe_pred,
                filter_first,
                output,
                ..
            } => {
                match output {
                    JoinOutput::Project(cols) => {
                        s.push_str(&format!("DEVICE: Project [{} cols]\n", cols.len()))
                    }
                    JoinOutput::Aggregate(aggs) => {
                        s.push_str(&format!("DEVICE: Aggregate [{} aggs]\n", aggs.len()))
                    }
                }
                if *filter_first {
                    s.push_str("          HashJoin (probe)\n");
                    s.push_str(&format!(
                        "            Filter [{} atoms]\n",
                        probe_pred.num_atoms()
                    ));
                    s.push_str(&format!("              Scan {probe}\n"));
                } else {
                    s.push_str(&format!(
                        "          Filter [{} atoms]\n",
                        probe_pred.num_atoms()
                    ));
                    s.push_str("            HashJoin (probe)\n");
                    s.push_str(&format!("              Scan {probe}\n"));
                }
                s.push_str(&format!("          HashBuild <- Scan {build}\n"));
            }
        }
        s
    }
}

/// Shorthand for join output columns.
pub fn probe_col(i: usize) -> ColRef {
    ColRef::Probe(i)
}

/// Shorthand for join output columns.
pub fn build_col(i: usize) -> ColRef {
    ColRef::Build(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_storage::expr::{AggFunc, AggSpec, CmpOp, Expr};
    use smartssd_storage::{DataType, Layout, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "t",
            TableRef {
                first_lba: 0,
                num_pages: 10,
                schema: Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)]),
                layout: Layout::Nsm,
            },
        );
        c.register(
            "r",
            TableRef {
                first_lba: 10,
                num_pages: 2,
                schema: Schema::from_pairs(&[("id", DataType::Int32), ("p", DataType::Int32)]),
                layout: Layout::Nsm,
            },
        );
        c
    }

    fn agg_query() -> Query {
        Query {
            name: "q".into(),
            op: OpTemplate::ScanAgg {
                table: "t".into(),
                spec: ScanAggSpec {
                    pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5)),
                    aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
                },
            },
            finalize: Finalize::AggRow,
        }
    }

    #[test]
    fn resolves_against_catalog() {
        let q = agg_query();
        let op = q.resolve(&catalog()).unwrap();
        match op {
            QueryOp::ScanAgg { table, .. } => assert_eq!(table.num_pages, 10),
            _ => panic!("wrong op"),
        }
    }

    #[test]
    fn unknown_table_is_an_error() {
        let mut q = agg_query();
        q.op = OpTemplate::ScanAgg {
            table: "missing".into(),
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        assert_eq!(
            q.resolve(&catalog()).unwrap_err(),
            PlanError::UnknownTable("missing".into())
        );
    }

    #[test]
    fn invalid_columns_fail_resolution() {
        let mut q = agg_query();
        q.op = OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::sum(Expr::col(42))],
            },
        };
        assert!(matches!(
            q.resolve(&catalog()).unwrap_err(),
            PlanError::Invalid(_)
        ));
    }

    #[test]
    fn finalize_ratio() {
        let mut a = AggState::new(AggFunc::Sum);
        let mut b = AggState::new(AggFunc::Sum);
        a.update(30);
        b.update(120);
        let (vals, scalar) = Finalize::RatioPct { num: 0, den: 1 }.apply(&[a, b]);
        assert_eq!(vals, vec![30, 120]);
        assert!((scalar.unwrap() - 25.0).abs() < 1e-9);
        // Zero denominator is defined as 0, not a panic.
        let z = AggState::new(AggFunc::Sum);
        let (_, s) = Finalize::RatioPct { num: 0, den: 1 }.apply(&[a, z]);
        assert_eq!(s, Some(0.0));
    }

    #[test]
    fn plan_description_mentions_structure() {
        let q = Query {
            name: "join".into(),
            op: OpTemplate::Join {
                probe: "t".into(),
                build: "r".into(),
                build_key: 0,
                build_payload: vec![1],
                probe_key: 0,
                probe_pred: Pred::Const(true),
                filter_first: true,
                output: JoinOutput::Project(vec![probe_col(0), build_col(0)]),
            },
            finalize: Finalize::Rows,
        };
        let d = q.describe_pushdown();
        assert!(d.contains("HashJoin"));
        assert!(d.contains("Scan t"));
        assert!(d.contains("HashBuild <- Scan r"));
        assert!(d.contains("DEVICE"));
        // Filter-first plans show the filter below the join.
        let filter_pos = d.find("Filter").unwrap();
        let join_pos = d.find("HashJoin").unwrap();
        assert!(filter_pos > join_pos);
    }

    #[test]
    fn catalog_names_sorted() {
        assert_eq!(catalog().names(), vec!["r", "t"]);
    }
}
