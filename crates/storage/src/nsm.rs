//! NSM (N-ary Storage Model) slotted pages.
//!
//! The traditional row-store page: whole tuple records grow forward from the
//! header, a slot directory of 2-byte record offsets grows backward from the
//! end of the page. This mirrors SQL Server's heap page organization, which
//! the paper uses for the host path and for the Smart SSD NSM configuration.
//!
//! Records in this workspace are fixed width (paper Section 4.1.1), but the
//! slot directory is kept anyway: real heap pages have one, and walking it is
//! part of the per-tuple decode cost that makes NSM slower than PAX inside
//! the device.

use crate::expr::CmpOp;
use crate::page::{le_i32, le_i64, le_u16, Layout, PageBuf, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::row::RowAccessor;
use crate::schema::Schema;
use crate::tuple::{RecordRun, TupleError};
use crate::types::{Datum, IntWidth};
use crate::vector::compact_cmp;
use std::sync::Arc;

/// Maximum number of fixed-width tuples of `tuple_width` bytes that fit on
/// one NSM page (record bytes + 2-byte slot each).
pub fn capacity(tuple_width: usize) -> usize {
    (PAGE_SIZE - PAGE_HEADER_SIZE) / (tuple_width + 2)
}

/// Builds NSM pages from a stream of tuples.
///
/// Records are staged back to back as they will lie on the page, in a
/// [`RecordRun`], each field written once at its final offset; `seal` hands
/// the live records and slot directory to the page format.
pub struct NsmPageBuilder {
    /// The staged records, room for a full page reserved.
    records: RecordRun,
    /// A full page's slot directory as it lies at the tail of the page: slot
    /// `i` holds record `i`'s offset, `PAGE_HEADER_SIZE + i * width`, and
    /// sits at `slots.len() - 2 * (i + 1)`, so a page of `n` records takes
    /// the last `2 * n` bytes.
    slots: Vec<u8>,
    capacity: usize,
}

impl NsmPageBuilder {
    /// Creates a builder for pages of the given schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        let width = schema.tuple_width();
        let cap = capacity(width);
        assert!(
            cap >= 1,
            "tuple of width {width} does not fit on a {PAGE_SIZE}B page"
        );
        let mut slots = vec![0; 2 * cap];
        for (i, slot) in slots.chunks_exact_mut(2).rev().enumerate() {
            slot.copy_from_slice(&((PAGE_HEADER_SIZE + i * width) as u16).to_le_bytes());
        }
        Self {
            records: RecordRun::with_capacity(schema, cap),
            slots,
            capacity: cap,
        }
    }

    /// Whether the page has room for another tuple.
    pub fn has_room(&self) -> bool {
        self.records.len() < self.capacity
    }

    /// Number of tuples currently staged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no tuples are staged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a tuple, or returns why the schema cannot hold it and leaves
    /// the page as it was. Panics if the page is full — callers check
    /// [`Self::has_room`] and seal first.
    pub fn try_push(&mut self, tuple: &[Datum]) -> Result<(), TupleError> {
        assert!(self.has_room(), "NSM page is full");
        self.records.try_push(tuple)
    }

    /// [`Self::try_push`] for rows known to match the schema. Panics if the
    /// page is full or the row does not match.
    pub fn push(&mut self, tuple: &[Datum]) {
        self.try_push(tuple).expect("row matches the page's schema");
    }

    /// Appends whole records in [`crate::tuple::encode`]'s format, as a
    /// [`RecordRun`] holds them, until the page is full, and returns how
    /// many it took. The records lie on the page as given: one copy.
    pub fn append_records(&mut self, records: &[u8]) -> usize {
        let width = self.records.schema().tuple_width();
        let k = (records.len() / width).min(self.capacity - self.len());
        self.records.extend_records(&records[..k * width]);
        k
    }

    /// Seals the staged tuples into an immutable page and resets the
    /// builder for the next page.
    pub fn seal(&mut self) -> PageBuf {
        let n = self.len();
        let live_slots = &self.slots[self.slots.len() - 2 * n..];
        let page = PageBuf::format(Layout::Nsm, n as u16, [self.records.records()], live_slots);
        self.records.clear();
        page
    }
}

/// Record offset in slot `row` of the raw page `raw`. The column loops
/// take the page bytes once and call this per row, so the walk costs one
/// slot load and no re-derivation of the buffer.
#[inline]
fn slot_offset(raw: &[u8], row: usize) -> usize {
    le_u16(raw, PAGE_SIZE - 2 * (row + 1)) as usize
}

/// Read-side view of one NSM page.
pub struct NsmReader<'a> {
    page: &'a PageBuf,
    schema: &'a Schema,
    n: usize,
}

impl<'a> NsmReader<'a> {
    /// Wraps a page. Panics if the page is not NSM — mixing up layouts is a
    /// programming error, not a runtime condition.
    pub fn new(page: &'a PageBuf, schema: &'a Schema) -> Self {
        assert_eq!(page.layout(), Layout::Nsm, "not an NSM page");
        Self {
            page,
            schema,
            n: page.tuple_count() as usize,
        }
    }

    /// Raw bytes of the record in slot `row`.
    #[inline]
    pub fn record(&self, row: usize) -> &'a [u8] {
        debug_assert!(row < self.n);
        let off = slot_offset(self.page.raw(), row);
        &self.page.raw()[off..off + self.schema.tuple_width()]
    }
}

impl RowAccessor for NsmReader<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }

    fn num_rows(&self) -> usize {
        self.n
    }

    #[inline]
    fn field(&self, row: usize, col: usize) -> &[u8] {
        let rec = self.record(row);
        let off = self.schema.offset(col);
        &rec[off..off + self.schema.column(col).ty.width()]
    }

    fn gather_i64_into(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) {
        // Hoist the page bytes, column offset, and type match out of the
        // slot walk; each row then costs one slot load plus one field load.
        let raw: &[u8] = self.page.raw();
        let off = self.schema.offset(col);
        let base = |row: u32| slot_offset(raw, row as usize) + off;
        match self.schema.column(col).ty.int_width() {
            IntWidth::W4 => out.extend(rows.iter().map(|&row| le_i32(raw, base(row)) as i64)),
            IntWidth::W8 => out.extend(rows.iter().map(|&row| le_i64(raw, base(row)))),
        }
    }

    fn filter_i64_cmp(&self, col: usize, op: CmpOp, lit: i64, flipped: bool, rows: &mut Vec<u32>) {
        let raw: &[u8] = self.page.raw();
        let off = self.schema.offset(col);
        let base = |row: u32| slot_offset(raw, row as usize) + off;
        let op = if flipped { op.mirrored() } else { op };
        match self.schema.column(col).ty.int_width() {
            IntWidth::W4 => compact_cmp(rows, op, |_, row| le_i32(raw, base(row)) as i64, |_| lit),
            IntWidth::W8 => compact_cmp(rows, op, |_, row| le_i64(raw, base(row)), |_| lit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("s", DataType::Char(8)),
            ("v", DataType::Int64),
        ])
    }

    fn row(k: i32) -> Vec<Datum> {
        vec![Datum::I32(k), Datum::str("abc"), Datum::I64(k as i64 * 10)]
    }

    #[test]
    fn build_and_read_back() {
        let s = schema();
        let mut b = NsmPageBuilder::new(Arc::clone(&s));
        for k in 0..5 {
            b.push(&row(k));
        }
        let page = b.seal();
        assert_eq!(page.tuple_count(), 5);
        let r = NsmReader::new(&page, &s);
        assert_eq!(r.num_rows(), 5);
        for k in 0..5i32 {
            assert_eq!(r.i64_at(k as usize, 0), k as i64);
            assert_eq!(r.i64_at(k as usize, 2), k as i64 * 10);
            assert_eq!(r.field(k as usize, 1), b"abc     ");
        }
    }

    #[test]
    fn capacity_matches_paper_shape() {
        // The paper notes TPC-H Q6's LINEITEM pages hold ~51 tuples/page.
        // Our modified LINEITEM tuple is ~156 bytes; check the formula is in
        // the right ballpark for that width.
        assert_eq!(capacity(156), (8192 - 32) / 158);
        assert!(capacity(156) >= 50);
    }

    #[test]
    fn builder_fills_to_capacity_then_rejects() {
        let s = Schema::from_pairs(&[("x", DataType::Int64)]);
        let cap = capacity(8);
        let mut b = NsmPageBuilder::new(Arc::clone(&s));
        for i in 0..cap {
            assert!(b.has_room());
            b.push(&[Datum::I64(i as i64)]);
        }
        assert!(!b.has_room());
        let page = b.seal();
        assert_eq!(page.tuple_count() as usize, cap);
        // Builder is reusable after sealing.
        assert!(b.has_room());
        assert_eq!(b.len(), 0);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn overfill_panics() {
        let s = Schema::from_pairs(&[("x", DataType::Int64)]);
        let mut b = NsmPageBuilder::new(Arc::clone(&s));
        for i in 0..=capacity(8) {
            b.push(&[Datum::I64(i as i64)]);
        }
    }

    #[test]
    fn tuple_round_trip_via_accessor() {
        let s = schema();
        let mut b = NsmPageBuilder::new(Arc::clone(&s));
        b.push(&row(42));
        let page = b.seal();
        let r = NsmReader::new(&page, &s);
        let t = r.tuple_at(0);
        assert_eq!(t[0], Datum::I32(42));
        assert_eq!(t[2], Datum::I64(420));
    }

    #[test]
    #[should_panic(expected = "not an NSM page")]
    fn pax_page_rejected() {
        let s = schema();
        let page = crate::pax::PaxPageBuilder::new(Arc::clone(&s)).seal();
        NsmReader::new(&page, &s);
    }
}
