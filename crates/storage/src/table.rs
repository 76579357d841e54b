//! In-memory table images: an ordered list of formatted pages.
//!
//! A `TableImage` is the unit that gets loaded onto a simulated storage
//! device (each page becomes one logical block address). It is layout-typed:
//! the paper populates each table twice, once NSM and once PAX, and selects
//! the image matching the device configuration under test.

use crate::nsm::NsmPageBuilder;
use crate::page::{Layout, PageBuf, PAGE_SIZE};
use crate::pax::PaxPageBuilder;
use crate::row::RowAccessor;
use crate::schema::Schema;
use crate::tuple::{RecordRun, Tuple, TupleError};
use std::fmt;
use std::sync::Arc;

/// An immutable table: schema + layout + formatted pages.
#[derive(Clone)]
pub struct TableImage {
    name: String,
    schema: Arc<Schema>,
    layout: Layout,
    pages: Vec<PageBuf>,
    rows: u64,
}

impl TableImage {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Page layout of this image.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The formatted pages in order.
    pub fn pages(&self) -> &[PageBuf] {
        &self.pages
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total row count.
    pub fn num_rows(&self) -> u64 {
        self.rows
    }

    /// Total on-device size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE as u64
    }

    /// Decodes every tuple in storage order. Test/diagnostic path — the
    /// engines read pages, not whole tables.
    pub fn scan_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.rows as usize);
        for page in &self.pages {
            match self.layout {
                Layout::Nsm => {
                    let r = crate::nsm::NsmReader::new(page, &self.schema);
                    for i in 0..r.num_rows() {
                        out.push(r.tuple_at(i));
                    }
                }
                Layout::Pax => {
                    let r = crate::pax::PaxReader::new(page, &self.schema);
                    for i in 0..r.num_rows() {
                        out.push(r.tuple_at(i));
                    }
                }
            }
        }
        out
    }
}

/// A row a [`TableBuilder`] could not store, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowError {
    /// The row's index among all rows given to the builder, from 0.
    pub row: u64,
    /// What about it does not match the schema.
    pub error: TupleError,
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row {}: {}", self.row, self.error)
    }
}

impl std::error::Error for RowError {}

enum OpenPage {
    Nsm(NsmPageBuilder),
    Pax(PaxPageBuilder),
}

impl OpenPage {
    fn has_room(&self) -> bool {
        match self {
            OpenPage::Nsm(b) => b.has_room(),
            OpenPage::Pax(b) => b.has_room(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            OpenPage::Nsm(b) => b.is_empty(),
            OpenPage::Pax(b) => b.is_empty(),
        }
    }

    fn try_push(&mut self, t: &Tuple) -> Result<(), TupleError> {
        match self {
            OpenPage::Nsm(b) => b.try_push(t),
            OpenPage::Pax(b) => b.try_push(t),
        }
    }

    fn append_records(&mut self, records: &[u8]) -> usize {
        match self {
            OpenPage::Nsm(b) => b.append_records(records),
            OpenPage::Pax(b) => b.append_records(records),
        }
    }

    fn seal(&mut self) -> PageBuf {
        match self {
            OpenPage::Nsm(b) => b.seal(),
            OpenPage::Pax(b) => b.seal(),
        }
    }
}

/// Streams tuples into formatted pages of a chosen layout.
///
/// The builder keeps one page open across `extend`/`push` calls, so
/// row-at-a-time loading packs pages exactly as densely as bulk loading.
pub struct TableBuilder {
    name: String,
    schema: Arc<Schema>,
    layout: Layout,
    pages: Vec<PageBuf>,
    rows: u64,
    open: OpenPage,
}

impl TableBuilder {
    /// Creates a builder.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>, layout: Layout) -> Self {
        let open = match layout {
            Layout::Nsm => OpenPage::Nsm(NsmPageBuilder::new(Arc::clone(&schema))),
            Layout::Pax => OpenPage::Pax(PaxPageBuilder::new(Arc::clone(&schema))),
        };
        Self {
            name: name.into(),
            schema,
            layout,
            pages: Vec::new(),
            rows: 0,
            open,
        }
    }

    /// Appends all tuples produced by `rows`, sealing pages as they fill.
    /// Stops at the first row the schema cannot hold and returns it with
    /// its index among all rows given to this builder; the rows before it
    /// stay in the image, the rest are not read.
    pub fn try_extend<I>(&mut self, rows: I) -> Result<&mut Self, RowError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        for t in rows {
            if !self.open.has_room() {
                self.pages.push(self.open.seal());
            }
            self.open.try_push(&t).map_err(|error| RowError {
                row: self.rows,
                error,
            })?;
            self.rows += 1;
        }
        Ok(self)
    }

    /// [`Self::try_extend`] for rows known to match the schema. Panics on
    /// the first row that does not.
    pub fn extend<I>(&mut self, rows: I) -> &mut Self
    where
        I: IntoIterator<Item = Tuple>,
    {
        self.try_extend(rows)
            .expect("rows match the table's schema")
    }

    /// Appends one tuple.
    pub fn push(&mut self, tuple: Tuple) -> &mut Self {
        self.extend(std::iter::once(tuple))
    }

    /// Appends rows already checked and encoded, as the records of a
    /// [`RecordRun`], sealing pages as they fill. The pages are
    /// byte-identical to those [`Self::extend`] builds from the same rows.
    /// Panics unless `records` is whole records of this schema.
    pub fn extend_records(&mut self, mut records: &[u8]) -> &mut Self {
        let width = self.schema.tuple_width();
        assert_eq!(
            records.len() % width,
            0,
            "not whole records of width {width}"
        );
        while !records.is_empty() {
            if !self.open.has_room() {
                self.pages.push(self.open.seal());
            }
            let k = self.open.append_records(records);
            self.rows += k as u64;
            records = &records[k * width..];
        }
        self
    }

    /// Finishes the image, sealing any partially-filled page.
    pub fn finish(mut self) -> TableImage {
        if !self.open.is_empty() {
            self.pages.push(self.open.seal());
        }
        TableImage {
            name: self.name,
            schema: self.schema,
            layout: self.layout,
            pages: self.pages,
            rows: self.rows,
        }
    }
}

/// PAX pages' worth of rows [`build_both_layouts`] encodes before both
/// builders take them: the two images' pages are built in runs, not one by
/// one in turn, so each image's pages mostly lie together in memory
/// (building one NSM and one PAX page in turn read 6 % slower on
/// `figs_cold`'s cold scans).
const BOTH_LAYOUTS_RUN_PAGES: usize = 32;

/// Builds the same logical table in both layouts (paper Section 4.1.1: "For
/// the Smart SSDs, we also implemented the PAX layout") from one pass over
/// `gen`'s rows. Each row is checked and encoded once into a run of 32 PAX
/// pages' worth of records, which the NSM and then the PAX builder take
/// whole. The pages are byte-identical to two single-layout
/// [`TableBuilder`] builds. Panics on the first row the schema cannot hold.
pub fn build_both_layouts<F, I>(
    name: &str,
    schema: &Arc<Schema>,
    gen: F,
) -> (TableImage, TableImage)
where
    F: FnOnce() -> I,
    I: IntoIterator<Item = Tuple>,
{
    let run_rows = BOTH_LAYOUTS_RUN_PAGES * crate::pax::capacity(schema.tuple_width());
    let mut run = RecordRun::with_capacity(Arc::clone(schema), run_rows);
    let mut nsm = TableBuilder::new(name, Arc::clone(schema), Layout::Nsm);
    let mut pax = TableBuilder::new(name, Arc::clone(schema), Layout::Pax);
    let mut take = |run: &mut RecordRun| {
        nsm.extend_records(run.records());
        pax.extend_records(run.records());
        run.clear();
    };
    for (row, t) in gen().into_iter().enumerate() {
        let pushed = run.try_push(&t).map_err(|error| RowError {
            row: row as u64,
            error,
        });
        pushed.expect("rows match the table's schema");
        if run.len() == run_rows {
            take(&mut run);
        }
    }
    take(&mut run);
    (nsm.finish(), pax.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Datum};

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
    }

    fn rows(n: i32) -> Vec<Tuple> {
        (0..n)
            .map(|k| vec![Datum::I32(k), Datum::I64(k as i64 * 7)])
            .collect()
    }

    #[test]
    fn multi_page_round_trip_nsm() {
        let s = schema();
        let cap = crate::nsm::capacity(s.tuple_width()) as i32;
        let n = cap * 3 + 5; // forces 4 pages
        let mut b = TableBuilder::new("t", Arc::clone(&s), Layout::Nsm);
        b.extend(rows(n));
        let img = b.finish();
        assert_eq!(img.num_pages(), 4);
        assert_eq!(img.num_rows(), n as u64);
        let ts = img.scan_tuples();
        assert_eq!(ts.len(), n as usize);
        assert_eq!(ts[0][0], Datum::I32(0));
        assert_eq!(ts[n as usize - 1][1], Datum::I64((n as i64 - 1) * 7));
    }

    #[test]
    fn multi_page_round_trip_pax() {
        let s = schema();
        let cap = crate::pax::capacity(s.tuple_width()) as i32;
        let n = cap + 1;
        let mut b = TableBuilder::new("t", Arc::clone(&s), Layout::Pax);
        b.extend(rows(n));
        let img = b.finish();
        assert_eq!(img.num_pages(), 2);
        let ts = img.scan_tuples();
        assert_eq!(ts.len(), n as usize);
        for (k, t) in ts.iter().enumerate() {
            assert_eq!(t[0], Datum::I32(k as i32));
        }
    }

    #[test]
    fn both_layouts_hold_identical_data() {
        let s = schema();
        let (nsm, pax) = build_both_layouts("t", &s, || rows(1000));
        assert_eq!(nsm.num_rows(), pax.num_rows());
        assert_eq!(nsm.scan_tuples(), pax.scan_tuples());
        // PAX packs at least as densely (no slot array).
        assert!(pax.num_pages() <= nsm.num_pages());
    }

    /// One `Int32` column: NSM holds 1,360 rows a page and PAX 2,040, so
    /// 70,000 rows run past the first run of 32 PAX pages and end on a
    /// short page in both layouts.
    #[test]
    fn both_layouts_across_runs_equal_single_layout_builds() {
        let s = Schema::from_pairs(&[("k", DataType::Int32)]);
        let gen = || (0..70_000).map(|k| vec![Datum::I32(k)]);
        assert!(70_000 > BOTH_LAYOUTS_RUN_PAGES * crate::pax::capacity(4));
        let (nsm, pax) = build_both_layouts("t", &s, gen);
        for img in [nsm, pax] {
            let mut b = TableBuilder::new("t", Arc::clone(&s), img.layout());
            b.extend(gen());
            let single = b.finish();
            assert_eq!(img.num_rows(), single.num_rows());
            assert_eq!(img.num_pages(), single.num_pages());
            assert!(img
                .pages()
                .iter()
                .zip(single.pages())
                .all(|(a, b)| a.raw() == b.raw()));
        }
    }

    /// A refused row names its index, keeps the rows before it, and leaves
    /// nothing behind: going on after it builds the same pages as if it had
    /// never been offered.
    #[test]
    fn refused_row_is_named_and_leaves_no_trace() {
        use crate::tuple::TupleError;
        let s = schema();
        for layout in [Layout::Nsm, Layout::Pax] {
            let mut bad = rows(600);
            bad[400][1] = Datum::I32(7);
            let mut b = TableBuilder::new("t", Arc::clone(&s), layout);
            let err = b.try_extend(bad).err().expect("row 400 is refused");
            assert_eq!(err.row, 400);
            assert!(
                matches!(err.error, TupleError::Mismatch { col: 1, .. }),
                "{err}"
            );
            let err = b.try_extend([vec![Datum::I32(1)]]).err().unwrap();
            assert_eq!(
                err.to_string(),
                "row 400: 1 fields for a schema of 2 columns"
            );
            b.extend(rows(600).into_iter().skip(400));
            let mut clean = TableBuilder::new("t", Arc::clone(&s), layout);
            clean.extend(rows(600));
            let raw = |img: TableImage| {
                assert_eq!(img.num_rows(), 600);
                img.pages()
                    .iter()
                    .map(|p| p.raw().to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(raw(b.finish()), raw(clean.finish()), "{layout}");
        }
    }

    #[test]
    fn empty_table() {
        let s = schema();
        let img = TableBuilder::new("e", s, Layout::Nsm).finish();
        assert_eq!(img.num_pages(), 0);
        assert_eq!(img.num_rows(), 0);
        assert!(img.scan_tuples().is_empty());
    }

    #[test]
    fn size_bytes_counts_pages() {
        let s = schema();
        let mut b = TableBuilder::new("t", s, Layout::Nsm);
        b.push(vec![Datum::I32(1), Datum::I64(2)]);
        let img = b.finish();
        assert_eq!(img.size_bytes(), PAGE_SIZE as u64);
    }
}
