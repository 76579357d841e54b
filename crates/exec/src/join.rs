//! Simple hash join: build table, joined-rows view, and the probe kernel.
//!
//! The paper uses "a simple hash join algorithm that builds a hash table on
//! the \[small\] table" (Section 4.2.2.1). The build side's payload columns
//! are materialized as fixed-width records so the joined row can expose raw
//! field bytes without re-encoding per probe.
//!
//! The probe works a page at a time, like the scan kernels: the key column
//! is gathered once, the predicate runs over a [`SelectionVector`], and the
//! [`WorkCounts`] receipt of a page equals the tuple-at-a-time
//! [`crate::reference::probe_page_rowwise`] count for count.

use crate::kernels::{count_tuples, page_reader};
use crate::spec::{BuildSide, ColRef, JoinOutput, JoinSpec};
use crate::work::WorkCounts;
use smartssd_storage::expr::{AggState, EvalCounts};
use smartssd_storage::tuple::decode_field;
use smartssd_storage::vector::{eval_select, filter_select_with, EvalScratch, SelectionVector};
use smartssd_storage::{PageBuf, RowAccessor, Schema, Tuple};
use std::ops::Range;
use std::sync::Arc;

/// One distinct build key and the run of payload records that carry it.
/// `len == 0` marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    key: i64,
    start: u32,
    len: u32,
}

/// An in-memory hash table over the build side of a join.
///
/// Flat and open-addressed: a power-of-two slot array at most half full,
/// linear probing from a multiplicative hash of the key. A slot names a run
/// of payload records, so duplicates of a key cost no per-key allocation
/// and a probe touches one slot run and one contiguous payload range.
pub struct JoinHashTable {
    payload_schema: Arc<Schema>,
    payload_width: usize,
    /// Payload records, `payload_width` bytes each, grouped by key; the
    /// records of one key keep build-insertion order.
    payload_data: Vec<u8>,
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
    distinct_keys: u64,
    entries: u64,
}

/// Slot holding `key`, or the empty slot where it belongs.
#[inline]
fn slot_of(slots: &[Slot], shift: u32, key: i64) -> usize {
    let mask = slots.len() - 1;
    let mut i = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
    loop {
        let s = slots[i];
        if s.len == 0 || s.key == key {
            return i;
        }
        i = (i + 1) & mask;
    }
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
        let width = payload_schema.tuple_width();
        // Keys and payload records in insertion order.
        let (mut keys, mut staged) = (Vec::new(), Vec::new());
        let mut all = SelectionVector::new();
        for page in pages {
            let r = page_reader(page, schema);
            w.pages += 1;
            count_tuples(w, r.layout(), r.num_rows() as u64);
            all.reset_all(r.num_rows());
            r.gather_i64_into(build.key_col, all.rows(), &mut keys);
            for row in 0..r.num_rows() {
                for &c in &build.payload {
                    staged.extend_from_slice(r.field(row, c));
                }
            }
        }
        let n = keys.len();
        assert!(n <= u32::MAX as usize, "build side exceeds u32 records");
        w.values += n as u64 * (1 + build.payload.len() as u64);
        w.hash_builds += n as u64;
        // Count each key, turn the counts into run ends, then place the
        // records last to first, so each run fills back to front and ends
        // up in insertion order.
        let capacity = (2 * n).next_power_of_two().max(2);
        let shift = 64 - capacity.trailing_zeros();
        let mut slots = vec![Slot::default(); capacity];
        for &key in &keys {
            let at = slot_of(&slots, shift, key);
            let s = &mut slots[at];
            s.key = key;
            s.len += 1;
        }
        let (mut end, mut distinct_keys) = (0, 0);
        for s in slots.iter_mut().filter(|s| s.len > 0) {
            end += s.len;
            s.start = end;
            distinct_keys += 1;
        }
        let mut payload_data = vec![0; staged.len()];
        for (i, &key) in keys.iter().enumerate().rev() {
            let at = slot_of(&slots, shift, key);
            let s = &mut slots[at];
            s.start -= 1;
            payload_data[s.start as usize * width..][..width]
                .copy_from_slice(&staged[i * width..][..width]);
        }
        JoinHashTable {
            payload_schema,
            payload_width: width,
            payload_data,
            slots,
            shift,
            distinct_keys,
            entries: n as u64,
        }
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
    /// device runtime to enforce its memory grant. Priced per distinct key
    /// as the modelled device's table, not as this one's slot array.
    pub fn memory_bytes(&self) -> u64 {
        self.payload_data.len() as u64 + self.distinct_keys * 48
    }

    /// Payload record `idx` as raw bytes.
    pub(crate) fn payload(&self, idx: u32) -> &[u8] {
        &self.payload_data[idx as usize * self.payload_width..][..self.payload_width]
    }

    /// Payload records matching a key, in build-insertion order.
    #[inline]
    pub fn lookup(&self, key: i64) -> Range<u32> {
        let s = self.slots[slot_of(&self.slots, self.shift, key)];
        s.start..s.start + s.len
    }

    /// Schema of the payload records.
    pub fn payload_schema(&self) -> &Arc<Schema> {
        &self.payload_schema
    }
}

/// Joined rows of one probe page: row `i` is probe row `probe_rows[i]`
/// followed by the payload columns of build record `records[i]`. Implements
/// [`RowAccessor`] so aggregate expressions (Q14's `CASE WHEN p_type LIKE
/// 'PROMO%' ...`) evaluate over it like over any page.
pub(crate) struct JoinedRows<'a, R: RowAccessor> {
    pub(crate) probe: &'a R,
    pub(crate) probe_rows: &'a [u32],
    pub(crate) records: &'a [u32],
    pub(crate) ht: &'a JoinHashTable,
    pub(crate) joined_schema: &'a Schema,
}

impl<R: RowAccessor> RowAccessor for JoinedRows<'_, R> {
    fn schema(&self) -> &Schema {
        self.joined_schema
    }

    fn num_rows(&self) -> usize {
        self.records.len()
    }

    #[inline]
    fn field(&self, row: usize, col: usize) -> &[u8] {
        let n_probe = self.probe.schema().len();
        if col < n_probe {
            self.probe.field(self.probe_rows[row] as usize, col)
        } else {
            let ps = self.ht.payload_schema();
            let (c, payload) = (col - n_probe, self.ht.payload(self.records[row]));
            &payload[ps.offset(c)..][..ps.column(c).ty.width()]
        }
    }
}

/// The buffers of one probe pass's page kernel. Contents never carry from
/// one page to the next — only capacity does, so a warm pass allocates
/// nothing per page beyond the rows it emits.
#[derive(Debug, Default)]
struct ProbeScratch {
    sel: SelectionVector,
    eval: EvalScratch,
    keys: Vec<i64>,
    /// By probe row of the page: the records its key matched. Read only for
    /// rows that survived the probe, which were written on this page.
    hits: Vec<Range<u32>>,
    /// The page's matches in (probe row, build insertion) order.
    probe_rows: Vec<u32>,
    records: Vec<u32>,
    vals: Vec<i64>,
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
    scratch: ProbeScratch,
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
            scratch: ProbeScratch::default(),
        }
    }
}

/// Width in bytes of one row projected from a probe row and a payload
/// record.
pub(crate) fn projected_row_bytes(cols: &[ColRef], probe: &Schema, payload: &Schema) -> u64 {
    let width = |cr: &ColRef| match *cr {
        ColRef::Probe(c) => probe.column(c).ty.width() as u64,
        ColRef::Build(c) => payload.column(c).ty.width() as u64,
    };
    cols.iter().map(width).sum()
}

/// Probes one page of the probe table against the hash table.
///
/// Respects `spec.filter_first`: the Figure 4 plan filters the page and
/// probes the survivors; the Figure 6 plan probes every row and filters the
/// rows that matched. Either way the page's matches are then emitted in
/// (probe row, build insertion) order.
pub fn probe_page(
    page: &PageBuf,
    probe_schema: &Schema,
    spec: &JoinSpec,
    ht: &JoinHashTable,
    joined_schema: &Schema,
    sink: &mut JoinSink,
    w: &mut WorkCounts,
) {
    let s = &mut sink.scratch;
    let r = page_reader(page, probe_schema);
    let n = r.num_rows();
    w.pages += 1;
    count_tuples(w, r.layout(), n as u64);
    let mut ev = EvalCounts::default();
    s.sel.reset_all(n);
    if spec.filter_first {
        filter_select_with(&spec.probe_pred, &r, &mut s.sel, &mut ev, &mut s.eval);
    }
    s.keys.clear();
    r.gather_i64_into(spec.probe_key, s.sel.rows(), &mut s.keys);
    w.values += s.sel.len() as u64;
    w.hash_probes += s.sel.len() as u64;
    s.hits.resize(n, 0..0);
    let (keys, hits) = (&s.keys, &mut s.hits);
    s.sel.retain(|i, row| {
        let hit = ht.lookup(keys[i]);
        let found = !hit.is_empty();
        hits[row as usize] = hit;
        found
    });
    if !spec.filter_first {
        filter_select_with(&spec.probe_pred, &r, &mut s.sel, &mut ev, &mut s.eval);
    }
    s.probe_rows.clear();
    s.records.clear();
    for &row in s.sel.rows() {
        for record in s.hits[row as usize].clone() {
            s.probe_rows.push(row);
            s.records.push(record);
        }
    }
    let matches = s.records.len() as u64;
    sink.matches += matches;
    match &spec.output {
        JoinOutput::Project(cols) => {
            let ps = ht.payload_schema();
            sink.rows.reserve(s.records.len());
            for (&row, &record) in s.probe_rows.iter().zip(&s.records) {
                let payload = ht.payload(record);
                let datum = |cr: &ColRef| match *cr {
                    ColRef::Probe(c) => r.datum_at(row as usize, c),
                    ColRef::Build(c) => {
                        let ty = ps.column(c).ty;
                        decode_field(ty, &payload[ps.offset(c)..][..ty.width()])
                    }
                };
                sink.rows.push(cols.iter().map(datum).collect());
            }
            w.values += cols.len() as u64 * matches;
            w.out_tuples += matches;
            w.out_bytes += projected_row_bytes(cols, probe_schema, ps) * matches;
        }
        JoinOutput::Aggregate(aggs) => {
            let joined = JoinedRows {
                probe: &r,
                probe_rows: &s.probe_rows,
                records: &s.records,
                ht,
                joined_schema,
            };
            // The page's selection is spent; it now selects every match.
            s.sel.reset_all(s.records.len());
            for (a, state) in aggs.iter().zip(sink.aggs.iter_mut()) {
                let rows = s.sel.rows();
                eval_select(&a.expr, &joined, rows, &mut s.vals, &mut ev, &mut s.eval);
                for &v in &s.vals {
                    state.update(v);
                }
                w.agg_updates += matches;
            }
        }
    }
    w.absorb_eval(ev);
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
