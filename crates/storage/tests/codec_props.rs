//! Property tests of the page codecs: arbitrary schemas and rows must
//! round-trip bit-exactly through both layouts, layouts must agree with
//! each other, sealed page images must be byte-for-byte what the
//! two-buffer seal produced, and the checksum must catch any body
//! corruption — with certainty when the damage stays inside one aligned
//! word.

use proptest::prelude::*;
use smartssd_storage::page::{checksum64, page_digest, PAGE_HEADER_SIZE, PAGE_MAGIC};
use smartssd_storage::{
    nsm, nsm::NsmReader, pax, pax::PaxReader, tuple, DataType, Datum, Layout, RowAccessor, Schema,
    TableBuilder, Tuple, PAGE_SIZE,
};
use std::sync::Arc;

/// An arbitrary column type with a modest width.
fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int32),
        Just(DataType::Int64),
        (1u16..24).prop_map(DataType::Char),
    ]
}

/// An arbitrary schema of 1..8 columns.
fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    prop::collection::vec(arb_type(), 1..8).prop_map(|types| {
        let cols: Vec<(String, DataType)> = types
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("c{i}"), t))
            .collect();
        let pairs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Schema::from_pairs(&pairs)
    })
}

/// A datum valid for the given type. Char bytes avoid trailing spaces so
/// padding is unambiguous in equality checks.
fn arb_datum(ty: DataType) -> BoxedStrategy<Datum> {
    match ty {
        DataType::Int32 => any::<i32>().prop_map(Datum::I32).boxed(),
        DataType::Int64 => any::<i64>().prop_map(Datum::I64).boxed(),
        DataType::Char(w) => prop::collection::vec(0x21u8..0x7e, 0..=w as usize)
            .prop_map(|v| Datum::Str(v.into()))
            .boxed(),
    }
}

fn arb_rows(schema: Arc<Schema>, max: usize) -> impl Strategy<Value = (Arc<Schema>, Vec<Tuple>)> {
    let per_row: Vec<BoxedStrategy<Datum>> =
        schema.columns().iter().map(|c| arb_datum(c.ty)).collect();
    prop::collection::vec(per_row, 1..max).prop_map(move |rows| (Arc::clone(&schema), rows))
}

fn schema_and_rows() -> impl Strategy<Value = (Arc<Schema>, Vec<Tuple>)> {
    arb_schema().prop_flat_map(|s| arb_rows(s, 300))
}

/// Pads a string datum to the declared width, mirroring the codec.
fn padded(d: &Datum, ty: DataType) -> Datum {
    match (d, ty) {
        (Datum::Str(b), DataType::Char(w)) => {
            let mut v = b.to_vec();
            v.resize(w as usize, b' ');
            Datum::Str(v.into())
        }
        _ => d.clone(),
    }
}

/// The page image as the seal before single-pass sealing derived it: the
/// body assembled in a buffer of its own (records plus slot directory for
/// NSM, minipages back to back for PAX), copied into a zero-filled page,
/// then the header. Bytes `8..16` (the digest) are left zero.
fn two_buffer_image(layout: Layout, schema: &Schema, rows: &[Tuple]) -> Vec<u8> {
    let mut body = Vec::new();
    match layout {
        Layout::Nsm => {
            let mut slots = Vec::new();
            for t in rows {
                slots.push((PAGE_HEADER_SIZE + body.len()) as u16);
                tuple::encode(schema, t, &mut body);
            }
            body.resize(PAGE_SIZE - PAGE_HEADER_SIZE, 0);
            for (i, off) in slots.into_iter().enumerate() {
                let pos = PAGE_SIZE - PAGE_HEADER_SIZE - 2 * (i + 1);
                body[pos..pos + 2].copy_from_slice(&off.to_le_bytes());
            }
        }
        Layout::Pax => {
            for (c, col) in schema.columns().iter().enumerate() {
                let one_col = Schema::from_pairs(&[(col.name.as_str(), col.ty)]);
                for t in rows {
                    tuple::encode(&one_col, &t[c..=c], &mut body);
                }
            }
        }
    }
    let mut raw = vec![0u8; PAGE_SIZE];
    raw[PAGE_HEADER_SIZE..PAGE_HEADER_SIZE + body.len()].copy_from_slice(&body);
    raw[0..4].copy_from_slice(&PAGE_MAGIC);
    raw[4] = match layout {
        Layout::Nsm => 0,
        Layout::Pax => 1,
    };
    raw[5..7].copy_from_slice(&(rows.len() as u16).to_le_bytes());
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sealed_image_equals_two_buffer_image((schema, rows) in schema_and_rows()) {
        for layout in [Layout::Nsm, Layout::Pax] {
            let per_page = match layout {
                Layout::Nsm => nsm::capacity(schema.tuple_width()),
                Layout::Pax => pax::capacity(schema.tuple_width()),
            };
            let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
            b.extend(rows.iter().cloned());
            let img = b.finish();
            // Includes a short last page and every page after the first,
            // which the builder seals from reused scratch buffers.
            prop_assert_eq!(img.num_pages(), rows.len().div_ceil(per_page));
            for (page, chunk) in img.pages().iter().zip(rows.chunks(per_page)) {
                let mut sealed = page.raw().to_vec();
                prop_assert_eq!(page.stored_checksum(), page_digest(&sealed));
                sealed[8..16].fill(0);
                prop_assert!(
                    sealed == two_buffer_image(layout, &schema, chunk),
                    "{} page image drifted", layout
                );
            }
        }
    }

    #[test]
    fn layouts_round_trip_and_agree((schema, rows) in schema_and_rows()) {
        let expected: Vec<Tuple> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .zip(schema.columns())
                    .map(|(d, c)| padded(d, c.ty))
                    .collect()
            })
            .collect();
        let mut images = Vec::new();
        for layout in [Layout::Nsm, Layout::Pax] {
            let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
            b.extend(rows.iter().cloned());
            let img = b.finish();
            prop_assert_eq!(img.num_rows() as usize, rows.len());
            prop_assert_eq!(img.scan_tuples(), expected.clone(), "{} round trip", layout);
            images.push(img);
        }
        // PAX never needs more pages than NSM (no slot directory).
        prop_assert!(images[1].num_pages() <= images[0].num_pages());
    }

    #[test]
    fn random_field_access_matches_tuple_decode((schema, rows) in schema_and_rows()) {
        for layout in [Layout::Nsm, Layout::Pax] {
            let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
            b.extend(rows.iter().cloned());
            let img = b.finish();
            let mut row_base = 0usize;
            for page in img.pages() {
                let check = |r: &dyn RowAccessor| {
                    for i in 0..r.num_rows() {
                        let t = r.tuple_at(i);
                        for (c, d) in t.iter().enumerate() {
                            assert_eq!(*d, r.datum_at(i, c));
                        }
                    }
                    r.num_rows()
                };
                row_base += match layout {
                    Layout::Nsm => check(&NsmReader::new(page, &schema)),
                    Layout::Pax => check(&PaxReader::new(page, &schema)),
                };
            }
            prop_assert_eq!(row_base, rows.len());
        }
    }

    #[test]
    fn checksum_catches_any_body_corruption(
        (schema, rows) in schema_and_rows(),
        offset in 0usize..4096,
        nbytes in 1usize..16,
    ) {
        let mut b = TableBuilder::new("t", Arc::clone(&schema), Layout::Nsm);
        b.extend(rows.iter().cloned());
        let img = b.finish();
        let page = &img.pages()[0];
        let body_len = page.body().len();
        let off = offset % body_len;
        let bad = page.corrupted(off, nbytes.min(body_len - off));
        prop_assert!(bad.verify().is_err(), "corruption at {off} undetected");
    }

    /// The kernel's one certain guarantee, on page-sized bodies: rewriting
    /// any one aligned 8-byte word to any other value moves the checksum.
    #[test]
    fn checksum_catches_any_single_word_change(
        body in prop::collection::vec(any::<u8>(), PAGE_SIZE - PAGE_HEADER_SIZE),
        word in 0usize..(PAGE_SIZE - PAGE_HEADER_SIZE) / 8,
        value in any::<u64>(),
    ) {
        let at = 8 * word..8 * word + 8;
        prop_assume!(body[at.clone()] != value.to_le_bytes());
        let mut changed = body.clone();
        changed[at].copy_from_slice(&value.to_le_bytes());
        prop_assert!(checksum64(&body) != checksum64(&changed), "word {} -> {:#x}", word, value);
    }

    /// Lengths around the 64-byte stripe, so the zero-padded final stripe
    /// and the lengths that are no multiple of a word are covered: any
    /// single-byte change is caught, and the padding does not make a body
    /// alias the same body with a zero byte appended.
    #[test]
    fn checksum_catches_any_byte_change_at_any_length(
        body in prop::collection::vec(any::<u8>(), 0..=193),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut longer = body.clone();
        longer.push(0);
        prop_assert!(checksum64(&body) != checksum64(&longer), "len {} + zero byte", body.len());
        if !body.is_empty() {
            let at = at % body.len();
            let mut changed = body.clone();
            changed[at] ^= flip;
            prop_assert!(checksum64(&body) != checksum64(&changed), "len {} byte {}", body.len(), at);
        }
    }
}
