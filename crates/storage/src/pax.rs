//! PAX (Partition Attributes Across) pages.
//!
//! Same page-level granularity as NSM, but within the page all values of a
//! column are stored contiguously in a "minipage" (Ailamaki et al., VLDB
//! 2001). The paper implemented PAX for the Smart SSD because the in-device
//! scan then reads only the minipages of referenced columns — far fewer
//! device-CPU cycles per tuple than walking NSM slot directories and record
//! offsets (Section 4.1.1 and the PAX vs NSM bars in Figures 3/5/7).
//!
//! Page body layout (all columns fixed width, `n` tuples):
//!
//! ```text
//! [ col0 minipage: n * w0 bytes | col1 minipage: n * w1 bytes | ... ]
//! ```
//!
//! Minipage offsets are computable from the schema and `n`, so no on-page
//! offset table is needed.

use crate::expr::CmpOp;
use crate::page::{le_i32, le_i64, Layout, PageBuf, PAGE_HEADER_SIZE, PAGE_SIZE};
use crate::row::RowAccessor;
use crate::schema::Schema;
use crate::tuple::{write_row, FieldSlot, TupleError};
use crate::types::{DataType, Datum, IntWidth};
use crate::vector::compact_cmp;
use std::ops::Range;
use std::sync::Arc;

/// Maximum number of tuples of `tuple_width` bytes that fit in a PAX page.
/// Identical record payload to NSM minus the slot directory.
pub fn capacity(tuple_width: usize) -> usize {
    (PAGE_SIZE - PAGE_HEADER_SIZE) / tuple_width
}

/// Builds PAX pages from a stream of tuples.
///
/// Tuples are staged in one buffer laid out as a full page's body: column
/// `c`'s minipage starts at `capacity * schema.offset(c)`, so each field is
/// written once, at its final place. `seal` lays the minipages out back to
/// back sized to the actual tuple count, which on a full page is the staged
/// buffer as it is and on a short last page closes the gaps.
///
/// `try_push` writes only a string's own bytes: the first push into a page
/// space-fills the `Char` minipages of every row still free, one fill per
/// column and page rather than one call per field. Rows taken by
/// `append_records` arrive padded and pay nothing.
pub struct PaxPageBuilder {
    schema: Arc<Schema>,
    /// Each column's minipage base in `minipages` and its width as stride.
    fields: Box<[FieldSlot]>,
    /// Every column's minipage, sized for a full page.
    minipages: Vec<u8>,
    n: usize,
    capacity: usize,
    /// Whether the `Char` fields of rows `n..capacity` hold only spaces.
    padded: bool,
}

impl PaxPageBuilder {
    /// Creates a builder for pages of the given schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        let width = schema.tuple_width();
        let cap = capacity(width);
        assert!(
            cap >= 1,
            "tuple of width {width} does not fit on a {PAGE_SIZE}B page"
        );
        let fields = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(c, col)| FieldSlot {
                base: cap * schema.offset(c),
                stride: col.ty.width(),
                ty: col.ty,
            })
            .collect();
        Self {
            schema,
            fields,
            minipages: vec![0; cap * width],
            n: 0,
            capacity: cap,
            padded: false,
        }
    }

    /// Space-fills the `Char` fields of `rows`.
    fn pad(&mut self, rows: Range<usize>) {
        for f in self.fields.iter() {
            if let DataType::Char(_) = f.ty {
                let (lo, hi) = (rows.start * f.stride, rows.end * f.stride);
                self.minipages[f.base + lo..f.base + hi].fill(b' ');
            }
        }
    }

    /// Whether the page has room for another tuple.
    pub fn has_room(&self) -> bool {
        self.n < self.capacity
    }

    /// Number of tuples currently staged.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no tuples are staged.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Appends a tuple, or returns why the schema cannot hold it and leaves
    /// the page as it was. Panics if the page is full.
    pub fn try_push(&mut self, tuple: &[Datum]) -> Result<(), TupleError> {
        assert!(self.has_room(), "PAX page is full");
        if !self.padded {
            self.pad(self.n..self.capacity);
            self.padded = true;
        }
        let (schema, fields) = (&self.schema, &self.fields);
        let written = write_row(schema, fields, &mut self.minipages, self.n, tuple);
        match written {
            Ok(()) => self.n += 1,
            Err(_) => self.pad(self.n..self.n + 1),
        }
        written
    }

    /// [`Self::try_push`] for rows known to match the schema. Panics if the
    /// page is full or the row does not match.
    pub fn push(&mut self, tuple: &[Datum]) {
        self.try_push(tuple).expect("row matches the page's schema");
    }

    /// Appends whole records in [`crate::tuple::encode`]'s format, as a
    /// [`crate::tuple::RecordRun`] holds them, until the page is full, and
    /// returns how many it took: each column's fields are cut out of the
    /// records and laid at the end of its minipage, minipage by minipage.
    pub fn append_records(&mut self, records: &[u8]) -> usize {
        let width = self.schema.tuple_width();
        let k = (records.len() / width).min(self.capacity - self.n);
        for (c, f) in self.fields.iter().enumerate() {
            let off = self.schema.offset(c);
            let at = f.base + self.n * f.stride;
            let mini = self.minipages[at..at + k * f.stride].chunks_exact_mut(f.stride);
            for (field, rec) in mini.zip(records.chunks_exact(width)) {
                field.copy_from_slice(&rec[off..off + f.stride]);
            }
        }
        self.n += k;
        k
    }

    /// Seals the staged tuples into an immutable PAX page and resets the
    /// builder: each column's first `n` values, minipage after minipage.
    pub fn seal(&mut self) -> PageBuf {
        let n = self.n;
        let minipages = self
            .fields
            .iter()
            .map(|f| &self.minipages[f.base..f.base + n * f.stride]);
        let page = PageBuf::format(Layout::Pax, n as u16, minipages, &[]);
        self.n = 0;
        self.padded = false;
        page
    }
}

/// Read-side view of one PAX page.
pub struct PaxReader<'a> {
    page: &'a PageBuf,
    schema: &'a Schema,
    n: usize,
}

impl<'a> PaxReader<'a> {
    /// Wraps a page. Panics if the page is not PAX.
    pub fn new(page: &'a PageBuf, schema: &'a Schema) -> Self {
        assert_eq!(page.layout(), Layout::Pax, "not a PAX page");
        Self {
            page,
            schema,
            n: page.tuple_count() as usize,
        }
    }

    /// Byte offset of column `col`'s minipage within the body: the `n`
    /// values of every earlier column, whose widths sum to the column's
    /// record offset.
    #[inline]
    fn mini_offset(&self, col: usize) -> usize {
        self.n * self.schema.offset(col)
    }

    /// The contiguous minipage of column `col`: `n * width` bytes.
    #[inline]
    pub fn minipage(&self, col: usize) -> &'a [u8] {
        let w = self.schema.column(col).ty.width();
        let start = self.mini_offset(col);
        &self.page.body()[start..start + self.n * w]
    }

    /// Iterates a numeric column without materializing datums — the
    /// in-device scan hot path.
    pub fn i64_column(&self, col: usize) -> impl Iterator<Item = i64> + '_ {
        let ty = self.schema.column(col).ty;
        let w = ty.width();
        let mini = self.minipage(col);
        (0..self.n).map(move |i| crate::tuple::read_i64(ty, &mini[i * w..(i + 1) * w]))
    }
}

impl RowAccessor for PaxReader<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }

    fn num_rows(&self) -> usize {
        self.n
    }

    #[inline]
    fn field(&self, row: usize, col: usize) -> &[u8] {
        debug_assert!(row < self.n);
        let w = self.schema.column(col).ty.width();
        let start = self.mini_offset(col) + row * w;
        &self.page.body()[start..start + w]
    }

    fn gather_i64_into(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) {
        let mini = self.minipage(col);
        match self.schema.column(col).ty.int_width() {
            IntWidth::W4 => out.extend(
                rows.iter()
                    .map(|&row| le_i32(mini, row as usize * 4) as i64),
            ),
            IntWidth::W8 => out.extend(rows.iter().map(|&row| le_i64(mini, row as usize * 8))),
        }
    }

    fn filter_i64_cmp(&self, col: usize, op: CmpOp, lit: i64, flipped: bool, rows: &mut Vec<u32>) {
        let mini = self.minipage(col);
        let op = if flipped { op.mirrored() } else { op };
        match self.schema.column(col).ty.int_width() {
            IntWidth::W4 => compact_cmp(
                rows,
                op,
                |_, row| le_i32(mini, row as usize * 4) as i64,
                |_| lit,
            ),
            IntWidth::W8 => compact_cmp(rows, op, |_, row| le_i64(mini, row as usize * 8), |_| lit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> std::sync::Arc<Schema> {
        Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("s", DataType::Char(5)),
            ("v", DataType::Int64),
        ])
    }

    #[test]
    fn build_and_read_back() {
        let s = schema();
        let mut b = PaxPageBuilder::new(Arc::clone(&s));
        for k in 0..10 {
            b.push(&[Datum::I32(k), Datum::str("ab"), Datum::I64(k as i64 * 3)]);
        }
        let page = b.seal();
        assert_eq!(page.layout(), Layout::Pax);
        let r = PaxReader::new(&page, &s);
        assert_eq!(r.num_rows(), 10);
        for k in 0..10usize {
            assert_eq!(r.i64_at(k, 0), k as i64);
            assert_eq!(r.field(k, 1), b"ab   ");
            assert_eq!(r.i64_at(k, 2), k as i64 * 3);
        }
    }

    #[test]
    fn minipages_are_contiguous() {
        let s = schema();
        let mut b = PaxPageBuilder::new(Arc::clone(&s));
        for k in 0..4 {
            b.push(&[Datum::I32(k), Datum::str("x"), Datum::I64(0)]);
        }
        let page = b.seal();
        let r = PaxReader::new(&page, &s);
        let mini = r.minipage(0);
        assert_eq!(mini.len(), 4 * 4);
        let vals: Vec<i32> = mini
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
    }

    #[test]
    fn i64_column_iterator_matches_field_access() {
        let s = schema();
        let mut b = PaxPageBuilder::new(Arc::clone(&s));
        for k in 0..7 {
            b.push(&[Datum::I32(k * 2), Datum::str("q"), Datum::I64(-k as i64)]);
        }
        let page = b.seal();
        let r = PaxReader::new(&page, &s);
        let via_iter: Vec<i64> = r.i64_column(2).collect();
        let via_field: Vec<i64> = (0..7).map(|i| r.i64_at(i, 2)).collect();
        assert_eq!(via_iter, via_field);
    }

    #[test]
    fn pax_capacity_exceeds_nsm_capacity() {
        // No slot directory: PAX fits at least as many tuples per page.
        assert!(capacity(156) >= crate::nsm::capacity(156));
    }

    #[test]
    #[should_panic(expected = "not a PAX page")]
    fn nsm_page_rejected() {
        let s = schema();
        let page = crate::nsm::NsmPageBuilder::new(Arc::clone(&s)).seal();
        PaxReader::new(&page, &s);
    }

    #[test]
    fn builder_resets_after_seal() {
        let s = schema();
        let mut b = PaxPageBuilder::new(Arc::clone(&s));
        b.push(&[Datum::I32(1), Datum::str("a"), Datum::I64(1)]);
        let p1 = b.seal();
        assert_eq!(p1.tuple_count(), 1);
        assert!(b.is_empty());
        b.push(&[Datum::I32(2), Datum::str("b"), Datum::I64(2)]);
        let p2 = b.seal();
        let r = PaxReader::new(&p2, &s);
        assert_eq!(r.i64_at(0, 0), 2);
    }
}
