//! Simple hash join: build table, joined-row view, and the probe kernel.
//!
//! The paper uses "a simple hash join algorithm that builds a hash table on
//! the \[small\] table" (Section 4.2.2.1). The build side's payload columns
//! are materialized as fixed-width records so the joined row can expose raw
//! field bytes without re-encoding per probe.

use crate::kernels::{count_tuples, page_reader};
use crate::spec::{BuildSide, ColRef, JoinOutput, JoinSpec};
use crate::work::WorkCounts;
use smartssd_storage::expr::{AggState, EvalCounts};
use smartssd_storage::{PageBuf, RowAccessor, Schema, Tuple};
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory hash table over the build side of a join.
pub struct JoinHashTable {
    payload_schema: Arc<Schema>,
    payload_width: usize,
    /// Flat payload records, `payload_width` bytes each.
    payload_data: Vec<u8>,
    /// key -> indexes of matching payload records (duplicates allowed).
    index: HashMap<i64, Vec<u32>>,
    entries: u64,
}

impl JoinHashTable {
    /// Builds the table from the build side's pages.
    pub fn build<'a>(
        pages: impl IntoIterator<Item = &'a PageBuf>,
        build: &BuildSide,
        w: &mut WorkCounts,
    ) -> JoinHashTable {
        let schema = &build.table.schema;
        let payload_schema = build.payload_schema();
        let payload_width = payload_schema.tuple_width();
        let mut ht = JoinHashTable {
            payload_schema,
            payload_width,
            payload_data: Vec::new(),
            index: HashMap::new(),
            entries: 0,
        };
        for page in pages {
            let r = page_reader(page, schema);
            w.pages += 1;
            count_tuples(w, r.layout(), r.num_rows() as u64);
            for row in 0..r.num_rows() {
                let key = r.i64_at(row, build.key_col);
                w.values += 1 + build.payload.len() as u64;
                let idx = ht.entries as u32;
                for &c in &build.payload {
                    ht.payload_data.extend_from_slice(r.field(row, c));
                }
                ht.index.entry(key).or_default().push(idx);
                ht.entries += 1;
                w.hash_builds += 1;
            }
        }
        ht
    }

    /// Number of build rows inserted.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Approximate resident size in bytes (payload + index), used by the
    /// device runtime to enforce its memory grant.
    pub fn memory_bytes(&self) -> u64 {
        self.payload_data.len() as u64 + self.index.len() as u64 * 48
    }

    /// Payload record `idx` as raw bytes.
    fn payload(&self, idx: u32) -> &[u8] {
        let start = idx as usize * self.payload_width;
        &self.payload_data[start..start + self.payload_width]
    }

    /// Matching payload indexes for a key.
    pub fn lookup(&self, key: i64) -> &[u32] {
        self.index.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Schema of the payload records.
    pub fn payload_schema(&self) -> &Arc<Schema> {
        &self.payload_schema
    }
}

/// A joined row: probe columns first, then build payload columns. Implements
/// [`RowAccessor`] so aggregate expressions (Q14's `CASE WHEN p_type LIKE
/// 'PROMO%' ...`) evaluate over it like over any page.
pub struct JoinedRow<'a, R: RowAccessor> {
    probe: &'a R,
    probe_row: usize,
    payload: &'a [u8],
    payload_schema: &'a Schema,
    joined_schema: &'a Schema,
}

impl<R: RowAccessor> RowAccessor for JoinedRow<'_, R> {
    fn schema(&self) -> &Schema {
        self.joined_schema
    }

    fn num_rows(&self) -> usize {
        1
    }

    #[inline]
    fn field(&self, _row: usize, col: usize) -> &[u8] {
        let n_probe = self.probe.schema().len();
        if col < n_probe {
            self.probe.field(self.probe_row, col)
        } else {
            let c = col - n_probe;
            let off = self.payload_schema.offset(c);
            &self.payload[off..off + self.payload_schema.column(c).ty.width()]
        }
    }
}

/// Accumulates join output: materialized rows, or aggregate states, per
/// [`JoinOutput`].
pub struct JoinSink {
    /// Materialized output rows (Project mode).
    pub rows: Vec<Tuple>,
    /// Aggregate states (Aggregate mode), one per spec entry.
    pub aggs: Vec<AggState>,
    /// Join matches produced (diagnostics).
    pub matches: u64,
}

impl JoinSink {
    /// Creates a sink shaped for the spec's output.
    pub fn new(spec: &JoinSpec) -> Self {
        let aggs = match &spec.output {
            JoinOutput::Project(_) => Vec::new(),
            JoinOutput::Aggregate(aggs) => aggs.iter().map(|a| AggState::new(a.func)).collect(),
        };
        Self {
            rows: Vec::new(),
            aggs,
            matches: 0,
        }
    }
}

/// Probes one page of the probe table against the hash table.
///
/// Respects `spec.filter_first`: the Figure 4 plan filters probe rows before
/// probing; the Figure 6 plan probes every row and filters afterwards.
pub fn probe_page(
    page: &PageBuf,
    probe_schema: &Schema,
    spec: &JoinSpec,
    ht: &JoinHashTable,
    joined_schema: &Schema,
    sink: &mut JoinSink,
    w: &mut WorkCounts,
) {
    let r = page_reader(page, probe_schema);
    w.pages += 1;
    count_tuples(w, r.layout(), r.num_rows() as u64);
    for row in 0..r.num_rows() {
        if spec.filter_first {
            let mut ev = EvalCounts::default();
            let pass = spec.probe_pred.eval_counted(&r, row, &mut ev);
            w.absorb_eval(ev);
            if !pass {
                continue;
            }
        }
        let key = r.i64_at(row, spec.probe_key);
        w.values += 1;
        w.hash_probes += 1;
        let matches = ht.lookup(key);
        if matches.is_empty() {
            continue;
        }
        if !spec.filter_first {
            let mut ev = EvalCounts::default();
            let pass = spec.probe_pred.eval_counted(&r, row, &mut ev);
            w.absorb_eval(ev);
            if !pass {
                continue;
            }
        }
        for &m in matches {
            sink.matches += 1;
            let payload = ht.payload(m);
            match &spec.output {
                JoinOutput::Project(cols) => {
                    let mut t = Tuple::with_capacity(cols.len());
                    let mut bytes = 0u64;
                    for cr in cols {
                        match *cr {
                            ColRef::Probe(c) => {
                                bytes += probe_schema.column(c).ty.width() as u64;
                                t.push(r.datum_at(row, c));
                            }
                            ColRef::Build(c) => {
                                let ps = ht.payload_schema();
                                let off = ps.offset(c);
                                let width = ps.column(c).ty.width();
                                bytes += width as u64;
                                t.push(smartssd_storage::tuple::decode_field(
                                    ps.column(c).ty,
                                    &payload[off..off + width],
                                ));
                            }
                        }
                    }
                    w.values += cols.len() as u64;
                    w.out_tuples += 1;
                    w.out_bytes += bytes;
                    sink.rows.push(t);
                }
                JoinOutput::Aggregate(aggs) => {
                    let jr = JoinedRow {
                        probe: &r,
                        probe_row: row,
                        payload,
                        payload_schema: ht.payload_schema(),
                        joined_schema,
                    };
                    for (a, state) in aggs.iter().zip(sink.aggs.iter_mut()) {
                        let mut ev = EvalCounts::default();
                        let v = a.expr.eval_counted(&jr, 0, &mut ev);
                        w.absorb_eval(ev);
                        state.update(v);
                        w.agg_updates += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BuildSide, TableRef};
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout, TableBuilder, TableImage};

    /// Build table: (id, val) with id 0..10, val = id * 100.
    fn build_table(layout: Layout) -> TableImage {
        let s = Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int64)]);
        let mut b = TableBuilder::new("r", Arc::clone(&s), layout);
        b.extend((0..10).map(|k| vec![Datum::I32(k), Datum::I64(k as i64 * 100)] as Tuple));
        b.finish()
    }

    /// Probe table: (fk, x) with fk = i % 20 (half miss), x = i.
    fn probe_table(layout: Layout, n: i32) -> TableImage {
        let s = Schema::from_pairs(&[("fk", DataType::Int32), ("x", DataType::Int32)]);
        let mut b = TableBuilder::new("s", Arc::clone(&s), layout);
        b.extend((0..n).map(|i| vec![Datum::I32(i % 20), Datum::I32(i)] as Tuple));
        b.finish()
    }

    fn spec_for(build: &TableImage, output: JoinOutput, filter_first: bool) -> JoinSpec {
        JoinSpec {
            build: BuildSide {
                table: TableRef {
                    first_lba: 0,
                    num_pages: build.num_pages() as u64,
                    schema: Arc::clone(build.schema()),
                    layout: build.layout(),
                },
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 0,
            probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(50)),
            filter_first,
            output,
        }
    }

    fn run_join(filter_first: bool) -> (JoinSink, WorkCounts) {
        let build = build_table(Layout::Nsm);
        let probe = probe_table(Layout::Nsm, 100);
        let spec = spec_for(
            &build,
            JoinOutput::Project(vec![ColRef::Probe(1), ColRef::Build(0)]),
            filter_first,
        );
        let mut w = WorkCounts::default();
        let ht = JoinHashTable::build(build.pages(), &spec.build, &mut w);
        let joined = spec.joined_schema(probe.schema());
        let mut sink = JoinSink::new(&spec);
        for p in probe.pages() {
            probe_page(p, probe.schema(), &spec, &ht, &joined, &mut sink, &mut w);
        }
        (sink, w)
    }

    #[test]
    fn join_matches_nested_loop_reference() {
        let (sink, _) = run_join(true);
        // Reference: probe rows with x < 50 and fk < 10 (fk in build).
        // fk = i % 20 < 10 for i in 0..50 -> i % 20 in 0..10: i in
        // 0..10 and 20..30 and 40..50 => 30 rows.
        assert_eq!(sink.rows.len(), 30);
        for t in &sink.rows {
            let x = t[0].as_i64();
            let val = t[1].as_i64();
            assert!(x < 50);
            assert_eq!(val, (x % 20) * 100);
        }
    }

    #[test]
    fn filter_order_changes_work_not_results() {
        let (a, wa) = run_join(true);
        let (b, wb) = run_join(false);
        assert_eq!(a.rows, b.rows);
        // Filter-first probes only qualifying rows (50); probe-first probes
        // all 100.
        assert!(wa.hash_probes < wb.hash_probes);
        assert_eq!(wb.hash_probes, 100);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        // Build with duplicate keys: two rows per id.
        let s = Schema::from_pairs(&[("id", DataType::Int32), ("val", DataType::Int64)]);
        let mut b = TableBuilder::new("r", Arc::clone(&s), Layout::Nsm);
        for k in 0..3 {
            b.push(vec![Datum::I32(k), Datum::I64(k as i64)]);
            b.push(vec![Datum::I32(k), Datum::I64(k as i64 + 1000)]);
        }
        let build = b.finish();
        let probe = probe_table(Layout::Nsm, 3);
        let spec = spec_for(
            &build,
            JoinOutput::Project(vec![ColRef::Probe(0), ColRef::Build(0)]),
            true,
        );
        let mut w = WorkCounts::default();
        let ht = JoinHashTable::build(build.pages(), &spec.build, &mut w);
        let joined = spec.joined_schema(probe.schema());
        let mut sink = JoinSink::new(&spec);
        for p in probe.pages() {
            probe_page(p, probe.schema(), &spec, &ht, &joined, &mut sink, &mut w);
        }
        // Each of the 3 probe rows matches 2 build rows.
        assert_eq!(sink.rows.len(), 6);
    }

    #[test]
    fn aggregate_output_over_joined_row() {
        let build = build_table(Layout::Pax);
        let probe = probe_table(Layout::Pax, 40);
        // SUM(probe.x + build.val) over joined schema: x is col 1,
        // build.val is col 2 (probe has 2 cols).
        let spec = spec_for(
            &build,
            JoinOutput::Aggregate(vec![AggSpec::sum(Expr::col(1).add(Expr::col(2)))]),
            true,
        );
        let mut w = WorkCounts::default();
        let ht = JoinHashTable::build(build.pages(), &spec.build, &mut w);
        let joined = spec.joined_schema(probe.schema());
        let mut sink = JoinSink::new(&spec);
        for p in probe.pages() {
            probe_page(p, probe.schema(), &spec, &ht, &joined, &mut sink, &mut w);
        }
        // Reference: i in 0..40, fk = i%20 < 10, x=i<50 always true.
        let expected: i128 = (0..40)
            .filter(|i| i % 20 < 10)
            .map(|i| i as i128 + ((i % 20) as i128 * 100))
            .sum();
        assert_eq!(sink.aggs[0].finish(), expected);
        assert!(w.agg_updates > 0);
    }

    #[test]
    fn hash_table_accounting() {
        let build = build_table(Layout::Nsm);
        let spec = spec_for(&build, JoinOutput::Project(vec![]), true);
        let mut w = WorkCounts::default();
        let ht = JoinHashTable::build(build.pages(), &spec.build, &mut w);
        assert_eq!(ht.len(), 10);
        assert!(!ht.is_empty());
        assert!(ht.memory_bytes() > 0);
        assert_eq!(w.hash_builds, 10);
        assert_eq!(ht.lookup(3).len(), 1);
        assert!(ht.lookup(99).is_empty());
    }
}
