//! Query templates, catalog resolution, finalization, and plan printing.

use smartssd_exec::spec::{ColRef, JoinOutput};
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

/// A query operator template: the physical operator over *named* tables,
/// which becomes a concrete [`QueryOp`] once resolved against a catalog.
pub type OpTemplate = QueryOp<String>;

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
        let op = self.op.try_map(|name| {
            catalog
                .get(name)
                .cloned()
                .ok_or_else(|| PlanError::UnknownTable(name.clone()))
        })?;
        op.validate()
            .map_err(|e| PlanError::Invalid(e.to_string()))?;
        Ok(op)
    }

    /// Pretty-prints the plan tree as executed in the Smart SSD, in the
    /// style of the paper's Figures 4 and 6 (host on top, device below).
    pub fn describe_pushdown(&self) -> String {
        let filter = |p: &Pred| format!("Filter [{} atoms]", p.num_atoms());
        // The device's plan: its root, then the two levels under it; a
        // join's lower level carries the probe scan and the build beside it.
        let (root, upper, lower) = match &self.op {
            QueryOp::Scan { table, spec } => (
                "DEVICE: Project".to_string(),
                filter(&spec.pred),
                format!("Scan {table}"),
            ),
            QueryOp::ScanAgg { table, spec } => (
                format!("DEVICE: Aggregate [{} aggs]", spec.aggs.len()),
                filter(&spec.pred),
                format!("Scan {table}"),
            ),
            QueryOp::GroupAgg { table, spec } => (
                format!(
                    "DEVICE: GroupAggregate [{} keys, {} aggs]",
                    spec.group_by.len(),
                    spec.aggs.len()
                ),
                filter(&spec.pred),
                format!("Scan {table}"),
            ),
            QueryOp::Join { probe, spec } => {
                let root = match &spec.output {
                    JoinOutput::Project(cols) => format!("DEVICE: Project [{} cols]", cols.len()),
                    JoinOutput::Aggregate(aggs) => {
                        format!("DEVICE: Aggregate [{} aggs]", aggs.len())
                    }
                };
                let (join, filter) = ("HashJoin (probe)".to_string(), filter(&spec.probe_pred));
                let (upper, lower) = if spec.filter_first {
                    (join, filter)
                } else {
                    (filter, join)
                };
                let build = &spec.build.table;
                let lower = format!(
                    "{lower}\n              Scan {probe}\n          HashBuild <- Scan {build}"
                );
                (root, upper, lower)
            }
        };
        format!(
            "-- {} (Smart SSD plan) --\nHOST:   collect results via GET\n\
             {root}\n          {upper}\n            {lower}\n",
            self.name
        )
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
    use smartssd_exec::spec::{BuildSide, JoinSpec, ScanAggSpec};
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
                spec: JoinSpec {
                    build: BuildSide {
                        table: "r".into(),
                        key_col: 0,
                        payload: vec![1],
                    },
                    probe_key: 0,
                    probe_pred: Pred::Const(true),
                    filter_first: true,
                    output: JoinOutput::Project(vec![probe_col(0), build_col(0)]),
                },
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
    fn plan_description_of_single_table_operators() {
        let pred = Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5));
        let scan = Query {
            name: "scan".into(),
            op: OpTemplate::Scan {
                table: "t".into(),
                spec: smartssd_exec::spec::ScanSpec {
                    pred: pred.clone(),
                    project: vec![1],
                },
            },
            finalize: Finalize::Rows,
        };
        let group = Query {
            name: "group".into(),
            op: OpTemplate::GroupAgg {
                table: "t".into(),
                spec: smartssd_exec::spec::GroupAggSpec {
                    pred,
                    group_by: vec![0],
                    aggs: vec![AggSpec::count()],
                },
            },
            finalize: Finalize::Rows,
        };
        let body = "\n          Filter [1 atoms]\n            Scan t\n";
        let head = |name: &str| {
            format!("-- {name} (Smart SSD plan) --\nHOST:   collect results via GET\n")
        };
        assert_eq!(
            scan.describe_pushdown(),
            head("scan") + "DEVICE: Project" + body
        );
        assert_eq!(
            group.describe_pushdown(),
            head("group") + "DEVICE: GroupAggregate [1 keys, 1 aggs]" + body
        );
    }

    #[test]
    fn unknown_probe_is_reported_before_unknown_build() {
        let join = |probe: &str, build: &str| Query {
            name: "join".into(),
            op: OpTemplate::Join {
                probe: probe.into(),
                spec: JoinSpec {
                    build: BuildSide {
                        table: build.into(),
                        key_col: 0,
                        payload: vec![1],
                    },
                    probe_key: 0,
                    probe_pred: Pred::Const(true),
                    filter_first: true,
                    output: JoinOutput::Project(vec![probe_col(0), build_col(0)]),
                },
            },
            finalize: Finalize::Rows,
        };
        let err = |q: Query| q.resolve(&catalog()).unwrap_err();
        let unknown = |t: &str| PlanError::UnknownTable(t.into());
        assert_eq!(err(join("p?", "b?")), unknown("p?"));
        assert_eq!(err(join("t", "b?")), unknown("b?"));
        match join("t", "r").resolve(&catalog()).unwrap() {
            QueryOp::Join { probe, spec } => {
                assert_eq!((probe.num_pages, spec.build.table.num_pages), (10, 2));
            }
            _ => panic!("wrong op"),
        }
    }

    #[test]
    fn catalog_names_sorted() {
        assert_eq!(catalog().names(), vec!["r", "t"]);
    }
}
