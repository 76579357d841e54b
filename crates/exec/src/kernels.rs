//! Page-level scan and aggregation kernels.
//!
//! Kernels are vectorized: each page is filtered once into a
//! [`SelectionVector`] by `smartssd_storage::vector` (columnar loops, one
//! tree walk per page instead of per row), then projection/aggregation run
//! over the surviving row indices. The [`WorkCounts`] receipts are
//! bit-identical to the tuple-at-a-time reference kernels (kept in
//! [`crate::reference`] for differential testing), so simulated timings are
//! unchanged — only host wall-clock improves.
//!
//! Every buffer a page kernel needs lives in a [`ScanScratch`]. Every page
//! of an execution reuses the one in [`crate::driver::run_op`]'s
//! [`crate::driver::OpScratch`], and a site that keeps that across
//! executions reuses it across operators too, so a warm scan allocates
//! nothing per page. The free functions ([`scan_agg_page`] and friends) run
//! one page on a fresh scratch.

use crate::spec::{GroupAggSpec, ScanAggSpec, ScanSpec};
use crate::work::WorkCounts;
use smartssd_storage::expr::{AggState, EvalCounts, Pred};
use smartssd_storage::nsm::NsmReader;
use smartssd_storage::pax::PaxReader;
use smartssd_storage::vector::{eval_select, filter_select_with, EvalScratch, SelectionVector};
use smartssd_storage::{Layout, PageBuf, RowAccessor, Schema, Tuple};

/// A layout-dispatched page reader.
pub enum AnyReader<'a> {
    /// NSM slotted-page view.
    Nsm(NsmReader<'a>),
    /// PAX columnar view.
    Pax(PaxReader<'a>),
}

impl<'a> AnyReader<'a> {
    /// Which layout this reader decodes (for per-layout tuple pricing).
    pub fn layout(&self) -> Layout {
        match self {
            AnyReader::Nsm(_) => Layout::Nsm,
            AnyReader::Pax(_) => Layout::Pax,
        }
    }
}

impl RowAccessor for AnyReader<'_> {
    fn schema(&self) -> &Schema {
        match self {
            AnyReader::Nsm(r) => r.schema(),
            AnyReader::Pax(r) => r.schema(),
        }
    }

    fn num_rows(&self) -> usize {
        match self {
            AnyReader::Nsm(r) => r.num_rows(),
            AnyReader::Pax(r) => r.num_rows(),
        }
    }

    #[inline]
    fn field(&self, row: usize, col: usize) -> &[u8] {
        match self {
            AnyReader::Nsm(r) => r.field(row, col),
            AnyReader::Pax(r) => r.field(row, col),
        }
    }

    fn gather_i64_into(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) {
        // Dispatch the layout once per batch, not once per row, so the
        // readers' typed gather loops are reached.
        match self {
            AnyReader::Nsm(r) => r.gather_i64_into(col, rows, out),
            AnyReader::Pax(r) => r.gather_i64_into(col, rows, out),
        }
    }

    fn filter_i64_cmp(
        &self,
        col: usize,
        op: smartssd_storage::expr::CmpOp,
        lit: i64,
        flipped: bool,
        rows: &mut Vec<u32>,
    ) {
        match self {
            AnyReader::Nsm(r) => r.filter_i64_cmp(col, op, lit, flipped, rows),
            AnyReader::Pax(r) => r.filter_i64_cmp(col, op, lit, flipped, rows),
        }
    }
}

/// Opens a page with the reader matching its layout tag.
pub fn page_reader<'a>(page: &'a PageBuf, schema: &'a Schema) -> AnyReader<'a> {
    match page.layout() {
        Layout::Nsm => AnyReader::Nsm(NsmReader::new(page, schema)),
        Layout::Pax => AnyReader::Pax(PaxReader::new(page, schema)),
    }
}

/// Charges the per-tuple visit counts for `n` tuples of the given layout.
#[inline]
pub(crate) fn count_tuples(w: &mut WorkCounts, layout: Layout, n: u64) {
    match layout {
        Layout::Nsm => w.tuples_nsm += n,
        Layout::Pax => w.tuples_pax += n,
    }
}

/// The buffers of an operator execution's page kernels: the selection
/// vector, the evaluator's temporaries, aggregate inputs, and the group
/// keys and probe results of a grouped page. Contents never carry from one
/// page to the next — only capacity does. An empty one allocates nothing
/// until a page needs a buffer.
#[derive(Debug, Default)]
pub struct ScanScratch {
    sel: SelectionVector,
    eval: EvalScratch,
    vals: Vec<i64>,
    keys: Vec<u8>,
    entries: Vec<u32>,
}

impl ScanScratch {
    /// Opens `page`, charges its visit to `w` and leaves in `self.sel` the
    /// rows satisfying `pred`.
    fn filter_page<'a>(
        &mut self,
        page: &'a PageBuf,
        schema: &'a Schema,
        pred: &Pred,
        ev: &mut EvalCounts,
        w: &mut WorkCounts,
    ) -> AnyReader<'a> {
        let r = page_reader(page, schema);
        w.pages += 1;
        count_tuples(w, r.layout(), r.num_rows() as u64);
        self.sel.reset_all(r.num_rows());
        filter_select_with(pred, &r, &mut self.sel, ev, &mut self.eval);
        r
    }

    /// Filter + project one page, appending qualifying projected tuples to
    /// `out`. Returns the number of qualifying rows.
    pub fn scan_page(
        &mut self,
        page: &PageBuf,
        schema: &Schema,
        spec: &ScanSpec,
        out: &mut Vec<Tuple>,
        w: &mut WorkCounts,
    ) -> usize {
        let mut ev = EvalCounts::default();
        let r = self.filter_page(page, schema, &spec.pred, &mut ev, w);
        w.absorb_eval(ev);
        let sel = self.sel.rows();
        let row_bytes = spec.row_bytes(schema);
        out.reserve(sel.len());
        for &row in sel {
            let mut t = Tuple::with_capacity(spec.project.len());
            for &c in &spec.project {
                t.push(r.datum_at(row as usize, c));
            }
            out.push(t);
        }
        w.values += spec.project.len() as u64 * sel.len() as u64;
        w.out_tuples += sel.len() as u64;
        w.out_bytes += row_bytes * sel.len() as u64;
        sel.len()
    }

    /// Filter + aggregate one page, folding qualifying rows into `states`
    /// (one state per `spec.aggs` entry).
    pub fn scan_agg_page(
        &mut self,
        page: &PageBuf,
        schema: &Schema,
        spec: &ScanAggSpec,
        states: &mut [AggState],
        w: &mut WorkCounts,
    ) {
        assert_eq!(states.len(), spec.aggs.len(), "one state per aggregate");
        let mut ev = EvalCounts::default();
        let r = self.filter_page(page, schema, &spec.pred, &mut ev, w);
        let sel = self.sel.rows();
        for (agg, state) in spec.aggs.iter().zip(states.iter_mut()) {
            eval_select(&agg.expr, &r, sel, &mut self.vals, &mut ev, &mut self.eval);
            for &v in &self.vals {
                state.update(v);
            }
            w.agg_updates += sel.len() as u64;
        }
        w.absorb_eval(ev);
    }

    /// Filter + group + aggregate one page into `acc`.
    pub fn scan_group_agg_page(
        &mut self,
        page: &PageBuf,
        schema: &Schema,
        spec: &GroupAggSpec,
        acc: &mut GroupTable,
        w: &mut WorkCounts,
    ) {
        let mut ev = EvalCounts::default();
        let r = self.filter_page(page, schema, &spec.pred, &mut ev, w);
        let sel = self.sel.rows();
        let key_width: usize = spec
            .group_by
            .iter()
            .map(|&c| schema.column(c).ty.width())
            .sum();
        // Build all keys column-wise into one buffer (layout dispatch and
        // column metadata hoisted out of the row loop), then probe per row.
        fill_keys(&r, &spec.group_by, schema, sel, key_width, &mut self.keys);
        let new_states = || spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
        self.entries.clear();
        if key_width == 0 {
            // Degenerate (unvalidated) grouping: every row shares the empty key.
            for _ in 0..sel.len() {
                self.entries.push(acc.upsert_with(&[], new_states) as u32);
            }
        } else {
            for key in self.keys.chunks_exact(key_width) {
                self.entries.push(acc.upsert_with(key, new_states) as u32);
            }
        }
        w.values += spec.group_by.len() as u64 * sel.len() as u64;
        w.hash_probes += sel.len() as u64; // group lookup costs like a hash probe
        for (ai, agg) in spec.aggs.iter().enumerate() {
            eval_select(&agg.expr, &r, sel, &mut self.vals, &mut ev, &mut self.eval);
            for (&e, &v) in self.entries.iter().zip(&self.vals) {
                acc.state_mut(e as usize, ai).update(v);
            }
            w.agg_updates += sel.len() as u64;
        }
        w.absorb_eval(ev);
    }
}

/// [`ScanScratch::scan_agg_page`] on a fresh scratch.
pub fn scan_agg_page(
    page: &PageBuf,
    schema: &Schema,
    spec: &ScanAggSpec,
    states: &mut [AggState],
    w: &mut WorkCounts,
) {
    ScanScratch::default().scan_agg_page(page, schema, spec, states, w)
}

/// [`ScanScratch::scan_group_agg_page`] on a fresh scratch.
pub fn scan_group_agg_page(
    page: &PageBuf,
    schema: &Schema,
    spec: &GroupAggSpec,
    acc: &mut GroupTable,
    w: &mut WorkCounts,
) {
    ScanScratch::default().scan_group_agg_page(page, schema, spec, acc, w)
}

/// Accumulator for grouped aggregation: encoded group key (concatenated
/// fixed-width field bytes) -> one running state per aggregate.
///
/// Open-addressing hash table with linear probing. Keys (all the same
/// width within one table) are interned back-to-back in one byte arena and
/// aggregate states live in one contiguous array, so a group probe is a
/// hash of raw key bytes plus at most a few slot comparisons — no per-row
/// allocation and no tree walk. A key of at most eight bytes (Q1's is two)
/// is also kept zero-extended as one `u64`, so its probe is one multiply
/// and word compares instead of a slice hash and `memcmp` calls. Output
/// order stays deterministic: [`group_table_rows`] sorts entries by key
/// bytes, which for fixed-width keys is exactly the order the previous
/// `BTreeMap`-based table produced.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    /// Probe table: entry index per slot, `u32::MAX` = empty. Power of two.
    slots: Vec<u32>,
    /// Interned keys, `key_width` bytes per entry: the source of output
    /// rows and of their order.
    key_data: Vec<u8>,
    /// The same keys as words, one per entry, when `key_width <= 8`
    /// (empty otherwise): what a narrow-key probe compares.
    key_words: Vec<u64>,
    /// Aggregate states, `num_aggs` per entry.
    states: Vec<AggState>,
    key_width: usize,
    num_aggs: usize,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;
/// Odd multiplier of the key hash (2^64 / golden ratio).
const KEY_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Up to eight key bytes, zero-extended, as one little-endian word.
#[inline]
fn key_word(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b))
}

impl GroupTable {
    /// An empty table; key width and aggregate count are fixed by the
    /// first insertion.
    pub fn new() -> Self {
        GroupTable::default()
    }

    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no groups.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width in bytes of the interned keys (0 until the first insertion).
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Whether keys fit one word and probe through `key_words`.
    #[inline]
    fn narrow(&self) -> bool {
        self.key_width <= 8
    }

    /// Hash of the raw key bytes, a word at a time; a key of one word
    /// costs one multiply. The slot is taken from the top bits, where a
    /// multiply mixes best.
    #[inline]
    fn hash_key(key: &[u8]) -> u64 {
        key.chunks(8)
            .fold(0, |h, c| Self::hash_word(h, key_word(c)))
    }

    /// One step of the key hash: fold `word` into `h`.
    #[inline]
    fn hash_word(h: u64, word: u64) -> u64 {
        (h.rotate_left(5) ^ word).wrapping_mul(KEY_MIX)
    }

    /// First slot to look at for a key of hash `h`.
    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    #[inline]
    fn entry_key(&self, e: usize) -> &[u8] {
        &self.key_data[e * self.key_width..(e + 1) * self.key_width]
    }

    fn entry_states(&self, e: usize) -> &[AggState] {
        &self.states[e * self.num_aggs..(e + 1) * self.num_aggs]
    }

    /// Slot holding the entry `is_key` accepts, or the empty slot where it
    /// belongs, on the probe sequence of hash `h`.
    #[inline]
    fn slot_for(&self, h: u64, is_key: impl Fn(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(h);
        loop {
            let e = self.slots[i];
            if e == EMPTY_SLOT || is_key(e as usize) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns the entry index for `key`, inserting a fresh entry (states
    /// from `new_states`) if absent.
    pub fn upsert_with(&mut self, key: &[u8], new_states: impl FnOnce() -> Vec<AggState>) -> usize {
        if self.slots.is_empty() {
            self.key_width = key.len();
            self.slots = vec![EMPTY_SLOT; 16];
        }
        debug_assert_eq!(key.len(), self.key_width, "uniform key width per table");
        // Keep load factor at or below ~0.7.
        if (self.len + 1) * 10 > self.slots.len() * 7 {
            self.grow();
        }
        let word = self.narrow().then(|| key_word(key));
        let s = match word {
            Some(w) => self.slot_for(Self::hash_word(0, w), |e| self.key_words[e] == w),
            None => self.slot_for(Self::hash_key(key), |e| self.entry_key(e) == key),
        };
        if self.slots[s] != EMPTY_SLOT {
            return self.slots[s] as usize;
        }
        let e = self.len;
        self.slots[s] = e as u32;
        self.key_data.extend_from_slice(key);
        self.key_words.extend(word);
        let st = new_states();
        if e == 0 {
            self.num_aggs = st.len();
        } else {
            debug_assert_eq!(st.len(), self.num_aggs, "uniform aggregate count");
        }
        self.states.extend(st);
        self.len += 1;
        e
    }

    /// Mutable access to entry `e`'s state for aggregate `agg`.
    #[inline]
    pub fn state_mut(&mut self, e: usize, agg: usize) -> &mut AggState {
        &mut self.states[e * self.num_aggs + agg]
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        let mask = cap - 1;
        for e in 0..self.len {
            let mut i = self.home(Self::hash_key(self.entry_key(e)));
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = e as u32;
        }
    }

    /// Entry indices in ascending key-byte order (the deterministic
    /// output order).
    fn sorted_entries(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by_key(|&e| self.entry_key(e));
        order
    }
}

/// Builds the concatenated group keys for `rows` column-wise into `buf`
/// (layout dispatch and per-column metadata hoisted out of the row loop):
/// `rows.len()` keys of `key_width` bytes each, byte-equal to concatenating
/// `field(row, col)` over `group_by`.
fn fill_keys(
    r: &AnyReader<'_>,
    group_by: &[usize],
    schema: &Schema,
    rows: &[u32],
    key_width: usize,
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.resize(rows.len() * key_width, 0);
    let mut off = 0usize;
    for &c in group_by {
        let w_c = schema.column(c).ty.width();
        match r {
            AnyReader::Pax(p) => {
                let mini = p.minipage(c);
                for (i, &row) in rows.iter().enumerate() {
                    buf[i * key_width + off..][..w_c]
                        .copy_from_slice(&mini[row as usize * w_c..][..w_c]);
                }
            }
            AnyReader::Nsm(nr) => {
                let col_off = schema.offset(c);
                for (i, &row) in rows.iter().enumerate() {
                    let rec = nr.record(row as usize);
                    buf[i * key_width + off..][..w_c].copy_from_slice(&rec[col_off..col_off + w_c]);
                }
            }
        }
        off += w_c;
    }
}

/// Approximate resident bytes of a group table (memory-grant accounting on
/// the device). Same per-group formula as the previous map-based table.
pub fn group_table_memory_bytes(acc: &GroupTable, num_aggs: usize) -> u64 {
    acc.len() as u64 * (acc.key_width() as u64 + num_aggs as u64 * 24 + 48)
}

/// Materializes a group table as output rows: grouping columns (decoded
/// from the key bytes) followed by each aggregate's final value as `Int64`
/// (saturating; aggregates that genuinely need 128 bits should stay
/// scalar, where partials travel as `AggState`).
pub fn group_table_rows(acc: &GroupTable, key_schema: &Schema) -> Vec<Tuple> {
    acc.sorted_entries()
        .into_iter()
        .map(|e| {
            let key = acc.entry_key(e);
            let states = acc.entry_states(e);
            let mut row = Tuple::with_capacity(key_schema.len() + states.len());
            for (i, col) in key_schema.columns().iter().enumerate() {
                let off = key_schema.offset(i);
                row.push(smartssd_storage::tuple::decode_field(
                    col.ty,
                    &key[off..off + col.ty.width()],
                ));
            }
            for st in states {
                let v = st.finish();
                row.push(smartssd_storage::Datum::I64(
                    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
                ));
            }
            row
        })
        .collect()
}

/// Folds group rows gathered from several partials — one per device of an
/// array, each from [`group_table_rows`] — into one row per key, in the
/// same key-byte order. A partial's aggregate arrives as its final `Int64`,
/// already saturated: counts and sums add, minima and maxima fold. Rows
/// whose keys are distinct (one partial) come back unchanged.
pub fn fold_group_rows(rows: Vec<Tuple>, spec: &GroupAggSpec, input: &Schema) -> Vec<Tuple> {
    let key_schema = spec.key_schema(input);
    let keys = key_schema.len();
    let mut acc = GroupTable::new();
    let mut key = Vec::with_capacity(key_schema.tuple_width());
    for row in &rows {
        key.clear();
        smartssd_storage::tuple::encode(&key_schema, &row[..keys], &mut key);
        let fresh = || spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
        let e = acc.upsert_with(&key, fresh);
        for (i, v) in row[keys..].iter().enumerate() {
            match acc.state_mut(e, i) {
                AggState::Count(n) => *n += v.as_i64() as u64,
                st => st.update(v.as_i64()),
            }
        }
    }
    group_table_rows(&acc, &key_schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScanSpec;
    use smartssd_storage::expr::{AggFunc, AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, TableBuilder};
    use std::sync::Arc;

    fn table(layout: Layout) -> smartssd_storage::TableImage {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new("t", Arc::clone(&s), layout);
        b.extend((0..100).map(|k| vec![Datum::I32(k), Datum::I64(k as i64 * 2)] as Tuple));
        b.finish()
    }

    #[test]
    fn scan_filters_and_projects_both_layouts() {
        for layout in [Layout::Nsm, Layout::Pax] {
            let img = table(layout);
            let spec = ScanSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(10)),
                project: vec![1],
            };
            let mut out = Vec::new();
            let mut w = WorkCounts::default();
            for p in img.pages() {
                ScanScratch::default().scan_page(p, img.schema(), &spec, &mut out, &mut w);
            }
            assert_eq!(out.len(), 10);
            assert_eq!(out[3], vec![Datum::I64(6)]);
            assert_eq!(w.tuples(), 100);
            assert_eq!(w.out_tuples, 10);
            assert_eq!(w.out_bytes, 80);
            match layout {
                Layout::Nsm => assert_eq!(w.tuples_nsm, 100),
                Layout::Pax => assert_eq!(w.tuples_pax, 100),
            }
        }
    }

    #[test]
    fn agg_kernel_matches_manual_sum() {
        let img = table(Layout::Pax);
        let spec = ScanAggSpec {
            pred: Pred::Cmp(CmpOp::Ge, Expr::col(0), Expr::lit(50)),
            aggs: vec![
                AggSpec::sum(Expr::col(1)),
                AggSpec::count(),
                AggSpec::min(Expr::col(0)),
                AggSpec::max(Expr::col(0)),
            ],
        };
        let mut states: Vec<AggState> = spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
        let mut w = WorkCounts::default();
        for p in img.pages() {
            scan_agg_page(p, img.schema(), &spec, &mut states, &mut w);
        }
        let expected: i128 = (50..100).map(|k| k as i128 * 2).sum();
        assert_eq!(states[0].finish(), expected);
        assert_eq!(states[1].finish(), 50);
        assert_eq!(states[2].finish(), 50);
        assert_eq!(states[3].finish(), 99);
        assert_eq!(w.agg_updates, 200); // 4 aggs x 50 qualifying rows
        let _ = AggFunc::Sum;
    }

    #[test]
    fn empty_predicate_counts_no_outputs() {
        let img = table(Layout::Nsm);
        let spec = ScanSpec {
            pred: Pred::Const(false),
            project: vec![0],
        };
        let mut out = Vec::new();
        let mut w = WorkCounts::default();
        for p in img.pages() {
            ScanScratch::default().scan_page(p, img.schema(), &spec, &mut out, &mut w);
        }
        assert!(out.is_empty());
        assert_eq!(w.out_tuples, 0);
        assert_eq!(w.tuples(), 100);
    }

    #[test]
    fn group_agg_matches_manual_grouping() {
        use crate::spec::GroupAggSpec;
        let s = Schema::from_pairs(&[("g", DataType::Int32), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new("t", Arc::clone(&s), Layout::Pax);
        b.extend((0..1000).map(|k| vec![Datum::I32(k % 7), Datum::I64(k as i64)] as Tuple));
        let img = b.finish();
        let spec = GroupAggSpec {
            pred: Pred::Cmp(CmpOp::Ge, Expr::col(1), Expr::lit(100)),
            group_by: vec![0],
            aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
        };
        let mut acc = GroupTable::new();
        let mut w = WorkCounts::default();
        for p in img.pages() {
            scan_group_agg_page(p, img.schema(), &spec, &mut acc, &mut w);
        }
        assert_eq!(acc.len(), 7);
        let rows = group_table_rows(&acc, &spec.key_schema(&s));
        // Reference grouping.
        for row in &rows {
            let g = row[0].as_i64();
            let expected_sum: i64 = (100..1000).filter(|k| k % 7 == g).sum();
            let expected_cnt = (100..1000).filter(|k| k % 7 == g).count() as i64;
            assert_eq!(row[1].as_i64(), expected_sum, "group {g}");
            assert_eq!(row[2].as_i64(), expected_cnt, "group {g}");
        }
        assert!(group_table_memory_bytes(&acc, 2) > 0);
        assert!(w.hash_probes >= 900);
    }

    /// Narrow keys (one packed word) and wide keys (slice compare) intern
    /// the same way through several growths: one entry per distinct key, in
    /// insertion order, found again on a second pass. Keys differ only in
    /// their last byte, the zero-extended one of a narrow key's word.
    #[test]
    fn group_table_interns_narrow_and_wide_keys() {
        for width in [0usize, 1, 3, 8, 9, 20] {
            let distinct = if width == 0 { 1 } else { 200 };
            let mut acc = GroupTable::new();
            for k in (0..distinct).chain(0..distinct) {
                let mut key = vec![0xAB; width];
                if let Some(last) = key.last_mut() {
                    *last = k as u8;
                }
                let e = acc.upsert_with(&key, || vec![AggState::new(AggFunc::Count)]);
                assert_eq!(e, k, "width {width}");
            }
            assert_eq!(acc.len(), distinct, "width {width}");
            assert_eq!(acc.key_width(), width);
        }
    }

    #[test]
    fn short_circuit_reduces_counted_atoms() {
        let img = table(Layout::Pax);
        // First conjunct fails for 90% of rows; with short-circuiting total
        // atoms << 2 * rows.
        let spec = ScanSpec {
            pred: Pred::And(vec![
                Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(10)),
                Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(1_000)),
            ]),
            project: vec![0],
        };
        let mut out = Vec::new();
        let mut w = WorkCounts::default();
        for p in img.pages() {
            ScanScratch::default().scan_page(p, img.schema(), &spec, &mut out, &mut w);
        }
        assert_eq!(w.pred_atoms, 110); // 100 first atoms + 10 second atoms
    }
}
