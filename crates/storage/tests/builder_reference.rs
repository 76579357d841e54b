//! The page builders against a reference encoder: over random schemas of
//! 1-64 columns (`Int32`, `Int64`, `Char(1..=60)`) and 0-3 full pages plus
//! a partial one, every sealed page must be byte-identical to the page
//! assembled here from `tuple::encode` records — laid out as NSM records
//! plus slot directory or as PAX minipages — with the header and digest of
//! the page format. Each row is built twice, its strings once borrowed and
//! once owned, and both must give the same pages.

use proptest::prelude::*;
use smartssd_storage::page::{page_digest, PAGE_HEADER_SIZE, PAGE_MAGIC};
use smartssd_storage::{nsm, pax, tuple, DataType, Datum, Layout, Schema, TableBuilder, Tuple};
use smartssd_storage::{PageBuf, PAGE_SIZE};
use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};
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
    prop::collection::vec(arb_type(), 1..=64).prop_map(|types| {
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
        let per_row: Vec<BoxedStrategy<Datum>> =
            schema.columns().iter().map(|c| arb_datum(c.ty)).collect();
        prop::collection::vec(per_row, n).prop_map(move |rows| (Arc::clone(&schema), layout, rows))
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
}
