//! Physical operator specifications — the `OPEN` parameters.
//!
//! Paper Section 3: "the query operation to be performed is passed as
//! parameters to the OPEN call". These types *are* those parameters: enough
//! to describe every operation the paper pushes down (scan, aggregation,
//! selection-with-join, join-with-aggregation) plus where the inputs live on
//! the device (LBA ranges).

use smartssd_storage::expr::{AggSpec, Pred};
use smartssd_storage::{Layout, Schema};
use std::sync::Arc;

/// Where a table lives on the device and how to decode it.
#[derive(Debug, Clone)]
pub struct TableRef {
    /// First logical block address of the table.
    pub first_lba: u64,
    /// Number of consecutive pages.
    pub num_pages: u64,
    /// Row schema.
    pub schema: Arc<Schema>,
    /// Page layout the table was written with.
    pub layout: Layout,
}

impl TableRef {
    /// Iterates the table's LBAs in storage order.
    pub fn lbas(&self) -> std::ops::Range<u64> {
        self.first_lba..self.first_lba + self.num_pages
    }
}

/// Filter + project scan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanSpec {
    /// Row filter.
    pub pred: Pred,
    /// Output columns, by input-schema index.
    pub project: Vec<usize>,
}

impl ScanSpec {
    /// Output schema implied by the projection.
    pub fn output_schema(&self, input: &Schema) -> Arc<Schema> {
        input.project(&self.project)
    }

    /// Width in bytes of one projected row (a column projected twice
    /// counts twice).
    pub fn row_bytes(&self, input: &Schema) -> u64 {
        self.project
            .iter()
            .map(|&c| input.column(c).ty.width() as u64)
            .sum()
    }

    /// Validates against the input schema.
    pub fn validate(&self, input: &Schema) -> Result<(), smartssd_storage::expr::ExprError> {
        self.pred.validate(input)?;
        for &c in &self.project {
            if c >= input.len() {
                return Err(smartssd_storage::expr::ExprError::ColumnOutOfRange(c));
            }
        }
        Ok(())
    }
}

/// Filter + aggregate scan (TPC-H Q6 shape). Produces one row of aggregate
/// partials per execution unit, merged by the consumer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanAggSpec {
    /// Row filter.
    pub pred: Pred,
    /// Aggregates computed over qualifying rows.
    pub aggs: Vec<AggSpec>,
}

impl ScanAggSpec {
    /// Validates against the input schema.
    pub fn validate(&self, input: &Schema) -> Result<(), smartssd_storage::expr::ExprError> {
        self.pred.validate(input)?;
        for a in &self.aggs {
            a.expr.validate(input)?;
        }
        Ok(())
    }
}

/// A column of the join output: either from the probe row or from the
/// build-side payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColRef {
    /// Probe-side column, by probe-schema index.
    Probe(usize),
    /// Build-side payload column, by position within the build payload.
    Build(usize),
}

/// The build side of a simple hash join: which device-resident table to
/// build from, its key, and which columns to carry as payload.
///
/// The paper's joins build on the small table (Synthetic64_R, PART) because
/// its hash table fits in memory (Sections 4.2.2.1/4.2.2.2); in the pushdown
/// plans of Figures 4 and 6 the build happens inside the device.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BuildSide<T = TableRef> {
    /// The build table (on the same device).
    pub table: T,
    /// Equi-join key column in the build schema.
    pub key_col: usize,
    /// Payload columns (by build-schema index) carried into the output.
    pub payload: Vec<usize>,
}

impl BuildSide {
    /// Schema of the carried payload.
    pub fn payload_schema(&self) -> Arc<Schema> {
        self.table.schema.project(&self.payload)
    }
}

/// What the join produces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinOutput {
    /// Materialized output rows (Figure 4's selection-with-join).
    Project(Vec<ColRef>),
    /// Aggregates over the joined row (Figure 6's Q14). Expressions use the
    /// *joined schema*: probe columns first, then build payload columns.
    Aggregate(Vec<AggSpec>),
}

/// Simple hash join: build on the small table, stream the big table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinSpec<T = TableRef> {
    /// Build side.
    pub build: BuildSide<T>,
    /// Equi-join key column in the probe schema.
    pub probe_key: usize,
    /// Predicate over probe rows.
    pub probe_pred: Pred,
    /// If true, the predicate runs before the probe (Figure 4's plan:
    /// selection below the join); if false, rows probe first and only
    /// matches are filtered (Figure 6's plan, where the selection slot of
    /// Figure 4 is replaced by the aggregation — this ordering is why the
    /// paper found Q14 CPU-heavy inside the device).
    pub filter_first: bool,
    /// Output shape.
    pub output: JoinOutput,
}

impl JoinSpec {
    /// The joined schema seen by `JoinOutput::Aggregate` expressions:
    /// probe columns, then build payload columns.
    pub fn joined_schema(&self, probe: &Schema) -> Arc<Schema> {
        let mut cols: Vec<smartssd_storage::Column> = probe.columns().to_vec();
        for c in self.build.payload_schema().columns() {
            let mut c = c.clone();
            // Disambiguate duplicate names across sides.
            c.name = format!("build.{}", c.name);
            cols.push(c);
        }
        Schema::new(cols)
    }

    /// Validates the spec against the probe schema (the build schema is
    /// carried inside `build.table`): join keys are integer columns, and
    /// the payload carries each build column at most once.
    pub fn validate(&self, probe: &Schema) -> Result<(), smartssd_storage::expr::ExprError> {
        use smartssd_storage::expr::ExprError;
        self.probe_pred.validate(probe)?;
        let build_schema = &self.build.table.schema;
        for (schema, key) in [(probe, self.probe_key), (build_schema, self.build.key_col)] {
            if key >= schema.len() {
                return Err(ExprError::ColumnOutOfRange(key));
            }
            if let smartssd_storage::DataType::Char(_) = schema.column(key).ty {
                return Err(ExprError::CharInNumericContext(key));
            }
        }
        for (i, &p) in self.build.payload.iter().enumerate() {
            if p >= build_schema.len() {
                return Err(ExprError::ColumnOutOfRange(p));
            }
            if self.build.payload[..i].contains(&p) {
                return Err(ExprError::DuplicateColumn(p));
            }
        }
        match &self.output {
            JoinOutput::Project(cols) => {
                for c in cols {
                    match *c {
                        ColRef::Probe(i) if i >= probe.len() => {
                            return Err(ExprError::ColumnOutOfRange(i))
                        }
                        ColRef::Build(i) if i >= self.build.payload.len() => {
                            return Err(ExprError::ColumnOutOfRange(i))
                        }
                        _ => {}
                    }
                }
            }
            JoinOutput::Aggregate(aggs) => {
                let joined = self.joined_schema(probe);
                for a in aggs {
                    a.expr.validate(&joined)?;
                }
            }
        }
        Ok(())
    }
}

/// A pushdown operation, as carried by the `OPEN` command.
///
/// `T` is how the operator names its tables: a [`TableRef`] (where the
/// table lives and how to decode it) in the physical operator both engines
/// execute, a table name in a query template. The template and the operator
/// are one type, so an operator is defined once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryOp<T = TableRef> {
    /// Filtered, projected scan of one table; streams rows back.
    Scan {
        /// Input table.
        table: T,
        /// Scan parameters.
        spec: ScanSpec,
    },
    /// Filtered aggregation over one table; streams aggregate partials.
    ScanAgg {
        /// Input table.
        table: T,
        /// Aggregation parameters.
        spec: ScanAggSpec,
    },
    /// Filtered grouped aggregation over one table; streams one row per
    /// group.
    GroupAgg {
        /// Input table.
        table: T,
        /// Grouped-aggregation parameters.
        spec: GroupAggSpec,
    },
    /// Hash join with the probe table streamed; build side read in-device.
    Join {
        /// Probe-side (large) table.
        probe: T,
        /// Join parameters.
        spec: JoinSpec<T>,
    },
}

impl<T> QueryOp<T> {
    /// The tables this operation reads: its input (or probe) table, then a
    /// join's build side.
    pub fn tables(&self) -> impl Iterator<Item = &T> {
        let (input, build) = match self {
            QueryOp::Scan { table, .. }
            | QueryOp::ScanAgg { table, .. }
            | QueryOp::GroupAgg { table, .. } => (table, None),
            QueryOp::Join { probe, spec } => (probe, Some(&spec.build.table)),
        };
        std::iter::once(input).chain(build)
    }

    /// The same operation over other table handles: `f` maps each table in
    /// [`QueryOp::tables`] order, so the input (or probe) table's error is
    /// the one reported when both would fail.
    pub fn try_map<U, E>(&self, mut f: impl FnMut(&T) -> Result<U, E>) -> Result<QueryOp<U>, E> {
        Ok(match self {
            QueryOp::Scan { table, spec } => QueryOp::Scan {
                table: f(table)?,
                spec: spec.clone(),
            },
            QueryOp::ScanAgg { table, spec } => QueryOp::ScanAgg {
                table: f(table)?,
                spec: spec.clone(),
            },
            QueryOp::GroupAgg { table, spec } => QueryOp::GroupAgg {
                table: f(table)?,
                spec: spec.clone(),
            },
            QueryOp::Join { probe, spec } => QueryOp::Join {
                probe: f(probe)?,
                spec: JoinSpec {
                    build: BuildSide {
                        table: f(&spec.build.table)?,
                        key_col: spec.build.key_col,
                        payload: spec.build.payload.clone(),
                    },
                    probe_key: spec.probe_key,
                    probe_pred: spec.probe_pred.clone(),
                    filter_first: spec.filter_first,
                    output: spec.output.clone(),
                },
            },
        })
    }
}

impl QueryOp {
    /// Validates the operation against its embedded schemas.
    pub fn validate(&self) -> Result<(), smartssd_storage::expr::ExprError> {
        match self {
            QueryOp::Scan { table, spec } => spec.validate(&table.schema),
            QueryOp::ScanAgg { table, spec } => spec.validate(&table.schema),
            QueryOp::GroupAgg { table, spec } => spec.validate(&table.schema),
            QueryOp::Join { probe, spec } => spec.validate(&probe.schema),
        }
    }

    /// Total pages this operation will read from the device.
    pub fn input_pages(&self) -> u64 {
        self.tables().map(|t| t.num_pages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_storage::expr::{CmpOp, Expr, ExprError};
    use smartssd_storage::DataType;

    fn probe_schema() -> Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Int64),
            ("s", DataType::Char(4)),
        ])
    }

    fn build_ref() -> TableRef {
        TableRef {
            first_lba: 0,
            num_pages: 1,
            schema: Schema::from_pairs(&[("id", DataType::Int32), ("pay", DataType::Int64)]),
            layout: Layout::Nsm,
        }
    }

    #[test]
    fn scan_spec_output_schema() {
        let s = probe_schema();
        let spec = ScanSpec {
            pred: Pred::Const(true),
            project: vec![2, 0],
        };
        let out = spec.output_schema(&s);
        assert_eq!(out.column(0).name, "s");
        assert_eq!(out.column(1).name, "k");
        assert!(spec.validate(&s).is_ok());
    }

    #[test]
    fn scan_spec_rejects_bad_projection() {
        let s = probe_schema();
        let spec = ScanSpec {
            pred: Pred::Const(true),
            project: vec![9],
        };
        assert!(spec.validate(&s).is_err());
    }

    #[test]
    fn join_spec_joined_schema_and_validation() {
        let probe = probe_schema();
        let spec = JoinSpec {
            build: BuildSide {
                table: build_ref(),
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 0,
            probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(10)),
            filter_first: true,
            output: JoinOutput::Project(vec![ColRef::Probe(0), ColRef::Build(0)]),
        };
        assert!(spec.validate(&probe).is_ok());
        let joined = spec.joined_schema(&probe);
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.column(3).name, "build.pay");
    }

    #[test]
    fn join_spec_rejects_bad_refs() {
        let probe = probe_schema();
        let mut spec = JoinSpec {
            build: BuildSide {
                table: build_ref(),
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 99,
            probe_pred: Pred::Const(true),
            filter_first: true,
            output: JoinOutput::Project(vec![]),
        };
        assert!(spec.validate(&probe).is_err());
        spec.probe_key = 0;
        spec.output = JoinOutput::Project(vec![ColRef::Build(5)]);
        assert!(spec.validate(&probe).is_err());
        spec.output = JoinOutput::Project(vec![]);
        spec.probe_key = 2;
        assert_eq!(
            spec.validate(&probe),
            Err(ExprError::CharInNumericContext(2))
        );
        spec.probe_key = 0;
        spec.build.payload = vec![1, 1];
        assert_eq!(spec.validate(&probe), Err(ExprError::DuplicateColumn(1)));
    }

    #[test]
    fn group_agg_spec_rejects_a_repeated_key() {
        let spec = GroupAggSpec {
            pred: Pred::Const(true),
            group_by: vec![2, 0, 2],
            aggs: vec![],
        };
        assert_eq!(
            spec.validate(&probe_schema()),
            Err(ExprError::DuplicateColumn(2))
        );
    }

    #[test]
    fn aggregate_output_validates_against_joined_schema() {
        let probe = probe_schema();
        let spec = JoinSpec {
            build: BuildSide {
                table: build_ref(),
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 0,
            probe_pred: Pred::Const(true),
            filter_first: false,
            // Column 3 = build payload; valid only in the joined schema.
            output: JoinOutput::Aggregate(vec![AggSpec::sum(Expr::col(3))]),
        };
        assert!(spec.validate(&probe).is_ok());
    }

    #[test]
    fn query_op_input_pages() {
        let op = QueryOp::Join {
            probe: TableRef {
                first_lba: 10,
                num_pages: 100,
                schema: probe_schema(),
                layout: Layout::Pax,
            },
            spec: JoinSpec {
                build: BuildSide {
                    table: build_ref(),
                    key_col: 0,
                    payload: vec![],
                },
                probe_key: 0,
                probe_pred: Pred::Const(true),
                filter_first: true,
                output: JoinOutput::Project(vec![]),
            },
        };
        assert_eq!(op.input_pages(), 101);
    }

    #[test]
    fn table_ref_lba_iteration() {
        let t = TableRef {
            first_lba: 5,
            num_pages: 3,
            schema: probe_schema(),
            layout: Layout::Nsm,
        };
        assert_eq!(t.lbas().collect::<Vec<_>>(), vec![5, 6, 7]);
    }
}

/// Filter + group-by + aggregate scan (the TPC-H Q1 shape).
///
/// The paper pushes only scalar aggregation; grouped aggregation inside the
/// device is one of the operators its Section 5 leaves as future work. The
/// device treats the group table like a join hash table: it consumes the
/// session's memory grant and the session fails (falling back to the host)
/// if the grant is exceeded.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupAggSpec {
    /// Row filter.
    pub pred: Pred,
    /// Grouping columns, by input-schema index (any type, each once).
    pub group_by: Vec<usize>,
    /// Aggregates computed per group.
    pub aggs: Vec<AggSpec>,
}

impl GroupAggSpec {
    /// Output schema: grouping columns followed by one `Int64` per
    /// aggregate (aggregate values are emitted as 64-bit integers; sums
    /// that genuinely need 128 bits stay scalar-only).
    pub fn output_schema(&self, input: &Schema) -> std::sync::Arc<Schema> {
        let mut cols: Vec<smartssd_storage::Column> = self
            .group_by
            .iter()
            .map(|&c| input.column(c).clone())
            .collect();
        for (i, _) in self.aggs.iter().enumerate() {
            cols.push(smartssd_storage::Column::new(
                format!("agg_{i}"),
                smartssd_storage::DataType::Int64,
            ));
        }
        Schema::new(cols)
    }

    /// The schema of just the grouping key.
    pub fn key_schema(&self, input: &Schema) -> std::sync::Arc<Schema> {
        input.project(&self.group_by)
    }

    /// Validates against the input schema.
    pub fn validate(&self, input: &Schema) -> Result<(), smartssd_storage::expr::ExprError> {
        use smartssd_storage::expr::ExprError;
        self.pred.validate(input)?;
        if self.group_by.is_empty() {
            // Scalar aggregation should use `ScanAggSpec`.
            return Err(ExprError::ColumnOutOfRange(usize::MAX));
        }
        for (i, &c) in self.group_by.iter().enumerate() {
            if c >= input.len() {
                return Err(ExprError::ColumnOutOfRange(c));
            }
            if self.group_by[..i].contains(&c) {
                return Err(ExprError::DuplicateColumn(c));
            }
        }
        for a in &self.aggs {
            a.expr.validate(input)?;
        }
        Ok(())
    }
}
