//! The on-page format of real data: the first page of a seeded LINEITEM
//! table, in each layout, has a pinned checksum (so neither the generator,
//! the page codecs nor the checksum kernel can drift silently), and no
//! single-bit flip anywhere in its body gets past validation.

use smartssd_storage::page::{PageError, PAGE_HEADER_SIZE};
use smartssd_storage::{Layout, PageBuf, TableBuilder, PAGE_SIZE};
use smartssd_workload::tpch::{lineitem_rows, lineitem_schema};

/// The first (full) page of LINEITEM at seed 42.
fn first_lineitem_page(layout: Layout) -> PageBuf {
    let mut b = TableBuilder::new("lineitem", lineitem_schema(), layout);
    b.extend(lineitem_rows(1.0, 42).take(100));
    b.finish().pages()[0].clone()
}

#[test]
fn seeded_lineitem_page_checksums_are_pinned() {
    for (layout, tuples, sum) in [
        (Layout::Nsm, 57, 0xD206_78C9_56DC_4638u64),
        (Layout::Pax, 57, 0xAC09_3056_6F49_4D5Cu64),
    ] {
        let page = first_lineitem_page(layout);
        assert_eq!(page.tuple_count(), tuples, "{layout} tuples per page");
        assert_eq!(page.stored_checksum(), sum, "{layout} page checksum");
        assert!(page.verify().is_ok());
    }
}

/// The guarantee `page::checksum64` documents, exhaustively on one page:
/// each of the 65,280 body bits, flipped alone, is a checksum mismatch.
#[test]
fn every_single_bit_flip_of_a_page_body_is_caught() {
    // NSM: records from the front, slot directory up to the last byte.
    let page = first_lineitem_page(Layout::Nsm);
    let mut raw = page.raw().to_vec();
    for byte in PAGE_HEADER_SIZE..PAGE_SIZE {
        for bit in 0..8 {
            raw[byte] ^= 1 << bit;
            match PageBuf::from_bytes(raw.clone().into()) {
                Err(PageError::ChecksumMismatch { stored, computed }) => {
                    assert_eq!(stored, page.stored_checksum());
                    assert_ne!(computed, stored);
                }
                other => panic!("byte {byte} bit {bit}: flip got {other:?}"),
            }
            raw[byte] ^= 1 << bit;
        }
    }
    assert!(PageBuf::from_bytes(raw.into()).is_ok(), "flips were undone");
}
