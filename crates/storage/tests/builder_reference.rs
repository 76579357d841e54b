//! The page builders against a reference encoder: over random schemas of
//! 1-64 columns (`Int32`, `Int64`, `Char(1..=60)`) and 0-3 full pages plus
//! a partial one, every sealed page must be byte-identical to the page
//! assembled here from `tuple::encode` records — laid out as NSM records
//! plus slot directory or as PAX minipages — with the header and digest of
//! the page format. Each row is built twice, its strings once borrowed and
//! once owned, and both must give the same pages.
//!
//! `build_both_layouts`, which encodes each row once and hands both
//! builders the records in runs, must build the pages and row counts of two
//! single-layout builds, on narrow schemas whose two layouts fit different
//! row counts on a page and on row counts that cross its runs.

use proptest::prelude::*;
use smartssd_storage::page::{page_digest, PAGE_HEADER_SIZE, PAGE_MAGIC};
use smartssd_storage::table::build_both_layouts;
use smartssd_storage::{nsm, pax, tuple, DataType, Datum, Layout, Schema, TableBuilder, Tuple};
use smartssd_storage::{PageBuf, PAGE_SIZE};
use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Static text the borrowed strings are cut from: every byte value, so
/// strings hold spaces, zeros and non-UTF-8 alike.
static TEXT: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = (i as u8).wrapping_mul(37);
        i += 1;
    }
    t
};

fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int32),
        Just(DataType::Int64),
        (1u16..=60).prop_map(DataType::Char),
    ]
}

fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    arb_schema_of(1..=64)
}

fn arb_schema_of(columns: RangeInclusive<usize>) -> impl Strategy<Value = Arc<Schema>> {
    prop::collection::vec(arb_type(), columns).prop_map(|types| {
        let names: Vec<String> = (0..types.len()).map(|i| format!("c{i}")).collect();
        let pairs: Vec<(&str, DataType)> = names.iter().map(String::as_str).zip(types).collect();
        Schema::from_pairs(&pairs)
    })
}

/// A datum of type `ty`; a string is borrowed static text, empty to full
/// width.
fn arb_datum(ty: DataType) -> BoxedStrategy<Datum> {
    match ty {
        DataType::Int32 => any::<i32>().prop_map(Datum::I32).boxed(),
        DataType::Int64 => any::<i64>().prop_map(Datum::I64).boxed(),
        DataType::Char(w) => (0..=w as usize, 0..=TEXT.len() - w as usize)
            .prop_map(|(len, at)| Datum::Str(Cow::Borrowed(&TEXT[at..at + len])))
            .boxed(),
    }
}

fn capacity(layout: Layout, schema: &Schema) -> usize {
    match layout {
        Layout::Nsm => nsm::capacity(schema.tuple_width()),
        Layout::Pax => pax::capacity(schema.tuple_width()),
    }
}

/// A schema, a layout, and `full` pages' worth of rows plus a partial page
/// of `part` times a page's rows (rounded down, so possibly none).
fn arb_table() -> impl Strategy<Value = (Arc<Schema>, Layout, Vec<Tuple>)> {
    let layout = prop_oneof![Just(Layout::Nsm), Just(Layout::Pax)];
    (arb_schema(), layout, 0usize..=3, 0.0..1.0f64).prop_flat_map(|(schema, layout, full, part)| {
        let cap = capacity(layout, &schema);
        let n = full * cap + (part * cap as f64) as usize;
        arb_rows(&schema, n).prop_map(move |rows| (Arc::clone(&schema), layout, rows))
    })
}

/// Rows of `schema`, `n` of them.
fn arb_rows(schema: &Schema, n: usize) -> impl Strategy<Value = Vec<Tuple>> {
    let per_row: Vec<BoxedStrategy<Datum>> =
        schema.columns().iter().map(|c| arb_datum(c.ty)).collect();
    prop::collection::vec(per_row, n)
}

/// The most rows a two-layout case generates.
const MAX_BOTH_ROWS: usize = 3_000;

/// A schema, narrow (1-4 columns, where NSM's slot directory costs it
/// rows: its page holds fewer than PAX's) or of 1-64 columns, and rows to
/// fill 0-70 PAX pages plus a partial one, at most [`MAX_BOTH_ROWS`]. A
/// wide schema's rows then span more than one of `build_both_layouts`'
/// runs of `table::BOTH_LAYOUTS_RUN_PAGES` pages.
fn arb_both() -> impl Strategy<Value = (Arc<Schema>, Vec<Tuple>)> {
    let schema = prop_oneof![arb_schema_of(1..=4), arb_schema()];
    (schema, 0usize..=70, 0.0..1.0f64).prop_flat_map(|(schema, full, part)| {
        let cap = pax::capacity(schema.tuple_width());
        let n = (full * cap + (part * cap as f64) as usize).min(MAX_BOTH_ROWS);
        arb_rows(&schema, n).prop_map(move |rows| (Arc::clone(&schema), rows))
    })
}

/// The same datum, its string bytes owned.
fn owned(d: &Datum) -> Datum {
    match d {
        Datum::Str(s) => Datum::Str(Cow::Owned(s.to_vec())),
        other => other.clone(),
    }
}

/// One page as the reference lays it out: the rows' `tuple::encode`
/// records back to back with slot `i` at `PAGE_SIZE - 2 * (i + 1)` (NSM),
/// or each column's fields cut out of the records and placed minipage after
/// minipage (PAX); then the header, zero fill and the digest.
fn reference_page(layout: Layout, schema: &Schema, rows: &[Tuple]) -> Vec<u8> {
    let width = schema.tuple_width();
    let mut records = Vec::new();
    for t in rows {
        tuple::encode(schema, t, &mut records);
    }
    let mut raw = vec![0u8; PAGE_SIZE];
    raw[0..4].copy_from_slice(&PAGE_MAGIC);
    raw[5..7].copy_from_slice(&(rows.len() as u16).to_le_bytes());
    match layout {
        Layout::Nsm => {
            raw[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + records.len()].copy_from_slice(&records);
            for i in 0..rows.len() {
                let slot = PAGE_SIZE - 2 * (i + 1);
                let off = (PAGE_HEADER_SIZE + i * width) as u16;
                raw[slot..slot + 2].copy_from_slice(&off.to_le_bytes());
            }
        }
        Layout::Pax => {
            raw[4] = 1;
            let mut at = PAGE_HEADER_SIZE;
            for c in 0..schema.len() {
                let (lo, w) = (schema.offset(c), schema.column(c).ty.width());
                for rec in records.chunks_exact(width) {
                    raw[at..at + w].copy_from_slice(&rec[lo..lo + w]);
                    at += w;
                }
            }
        }
    }
    let digest = page_digest(&raw);
    raw[8..16].copy_from_slice(&digest.to_le_bytes());
    raw
}

fn build(layout: Layout, schema: &Arc<Schema>, rows: Vec<Tuple>) -> Vec<PageBuf> {
    let mut b = TableBuilder::new("t", Arc::clone(schema), layout);
    b.extend(rows);
    b.finish().pages().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sealed_pages_equal_the_reference_encoder((schema, layout, rows) in arb_table()) {
        let owned_rows: Vec<Tuple> = rows.iter().map(|t| t.iter().map(owned).collect()).collect();
        let hasher = RandomState::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for (t, u) in rows.iter().zip(&owned_rows) {
            prop_assert_eq!(t, u);
            prop_assert_eq!(hasher.hash_one(t), hasher.hash_one(u));
            a.clear();
            b.clear();
            tuple::encode(&schema, t, &mut a);
            tuple::encode(&schema, u, &mut b);
            prop_assert!(a == b, "borrowed and owned encode apart");
        }
        let cap = capacity(layout, &schema);
        let expected: Vec<Vec<u8>> =
            rows.chunks(cap).map(|chunk| reference_page(layout, &schema, chunk)).collect();
        for (strings, input) in [("borrowed", rows), ("owned", owned_rows)] {
            let pages = build(layout, &schema, input);
            prop_assert_eq!(pages.len(), expected.len(), "{} {} pages", layout, strings);
            for (i, (page, want)) in pages.iter().zip(&expected).enumerate() {
                prop_assert!(
                    page.raw()[..] == want[..],
                    "{} page {} of {} ({} strings) differs from the reference",
                    layout, i, pages.len(), strings
                );
            }
        }
    }

    /// One generation pass builds both layouts byte for byte as two
    /// single-layout builds do, whatever the schema, however the rows fall
    /// on the two layouts' pages and on the shared record runs.
    #[test]
    fn both_layouts_equal_two_single_layout_builds((schema, rows) in arb_both()) {
        let (nsm, pax) = build_both_layouts("t", &schema, || rows.clone());
        for (img, layout) in [(nsm, Layout::Nsm), (pax, Layout::Pax)] {
            prop_assert_eq!(img.layout(), layout);
            prop_assert_eq!(img.num_rows(), rows.len() as u64);
            let want = build(layout, &schema, rows.clone());
            prop_assert_eq!(img.num_pages(), want.len(), "{} pages", layout);
            for (i, (page, single)) in img.pages().iter().zip(&want).enumerate() {
                prop_assert!(
                    page.raw()[..] == single.raw()[..],
                    "{} page {} of {} differs from the single-layout build",
                    layout, i, want.len()
                );
            }
        }
    }
}

/// A row refused on an over-long `Char` has already written its earlier
/// fields into the staged page. The next row, whose string there is
/// shorter, must still seal as `tuple::encode` lays it out: the PAX builder
/// pads a page's `Char` fields once, not per field, so it must re-pad the
/// refused row. Checked with the refused row first on its page and after
/// three rows.
#[test]
fn a_row_refused_on_a_long_string_leaves_nothing_under_a_shorter_one() {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("s", DataType::Char(8)),
        ("v", DataType::Int64),
        ("t", DataType::Char(4)),
    ]);
    let refused: Tuple = vec![
        Datum::I32(1),
        Datum::str("abcdefgh"),
        Datum::I64(2),
        Datum::str("too long"),
    ];
    let short = |k: i32| {
        vec![
            Datum::I32(k),
            Datum::str("xy"),
            Datum::I64(4),
            Datum::str("z"),
        ]
    };
    for layout in [Layout::Nsm, Layout::Pax] {
        for before in [0, 3] {
            let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
            b.extend((0..before).map(short));
            let err = b.try_extend([refused.clone()]).err().expect("refused");
            assert_eq!(err.row, before as u64);
            b.extend([short(9)]);
            let img = b.finish();
            let rows: Vec<Tuple> = (0..before).map(short).chain([short(9)]).collect();
            assert_eq!(img.num_pages(), 1);
            assert!(
                img.pages()[0].raw()[..] == reference_page(layout, &schema, &rows)[..],
                "{layout} page after {before} rows differs from the reference"
            );
        }
    }
}
