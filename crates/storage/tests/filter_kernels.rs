//! Exhaustive differential test of the readers' `filter_i64_cmp` kernels
//! against the trait's default implementation (per-row `i64_at` +
//! `CmpOp::matches`): 6 operators x `flipped` x {Int32, Int64} x {PAX, NSM
//! as built, NSM with a permuted slot directory} x five selection shapes x
//! boundary literals. The kernels are branch-free compaction loops with
//! their own field loads; the default is the specification.

use bytes::Bytes;
use smartssd_storage::expr::CmpOp;
use smartssd_storage::nsm::{NsmPageBuilder, NsmReader};
use smartssd_storage::page::{page_digest, PageBuf};
use smartssd_storage::pax::{PaxPageBuilder, PaxReader};
use smartssd_storage::{DataType, Datum, RowAccessor, Schema, PAGE_SIZE};
use std::sync::Arc;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const I32_COL: usize = 0;
const I64_COL: usize = 2;

/// Delegates only the required methods, so every provided method —
/// `filter_i64_cmp` included — is the trait's default.
struct Plain<'a, R: RowAccessor>(&'a R);

impl<R: RowAccessor> RowAccessor for Plain<'_, R> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn num_rows(&self) -> usize {
        self.0.num_rows()
    }
    fn field(&self, row: usize, col: usize) -> &[u8] {
        self.0.field(row, col)
    }
}

/// The numeric columns sit at offsets 0 and 7 of an odd-width record, so a
/// wrong stride or offset cannot land on another valid field by luck.
fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("a", DataType::Int32),
        ("s", DataType::Char(3)),
        ("b", DataType::Int64),
    ])
}

/// 41 rows whose numeric columns cycle through their types' extremes,
/// their neighbours, zero and a few repeated mid-range values.
fn rows() -> Vec<Vec<Datum>> {
    let a = [
        i32::MIN,
        i32::MIN + 1,
        -7,
        -1,
        0,
        1,
        7,
        i32::MAX - 1,
        i32::MAX,
    ];
    let b = [
        i64::MIN,
        i64::MIN + 1,
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        -7,
        0,
        7,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    (0..41)
        .map(|i| {
            vec![
                Datum::I32(a[i * 5 % a.len()]),
                Datum::str("xy"),
                Datum::I64(b[i * 3 % b.len()]),
            ]
        })
        .collect()
}

fn literals() -> Vec<i64> {
    vec![
        i64::MIN,
        i64::MIN + 1,
        i32::MIN as i64 - 1,
        i32::MIN as i64,
        i32::MIN as i64 + 1,
        -7,
        -1,
        0,
        1,
        7,
        i32::MAX as i64 - 1,
        i32::MAX as i64,
        i32::MAX as i64 + 1,
        i64::MAX - 1,
        i64::MAX,
    ]
}

/// Empty, one row, dense, sparse, last-row-only.
fn selections(n: u32) -> Vec<Vec<u32>> {
    vec![
        vec![],
        vec![n / 2],
        (0..n).collect(),
        (0..n).filter(|r| r % 3 == 1).collect(),
        vec![n - 1],
    ]
}

/// The page with slot `i` pointing at the record slot `perm(i)` held,
/// re-checksummed: same records, rows visited in a scrambled order, so a
/// kernel that assumed slot `i` is the `i`-th record would read the wrong
/// tuples.
fn permute_slots(page: &PageBuf) -> PageBuf {
    let n = page.tuple_count() as usize;
    let mut raw = page.raw().to_vec();
    let slot = |i: usize| PAGE_SIZE - 2 * (i + 1);
    let old: Vec<[u8; 2]> = (0..n).map(|i| [raw[slot(i)], raw[slot(i) + 1]]).collect();
    for i in 0..n {
        // 17 is coprime with 41: a full-cycle permutation, no fixed stride.
        raw[slot(i)..slot(i) + 2].copy_from_slice(&old[(i * 17 + 5) % n]);
    }
    let digest = page_digest(&raw);
    raw[8..16].copy_from_slice(&digest.to_le_bytes());
    PageBuf::from_bytes(Bytes::from(raw)).expect("re-checksummed page validates")
}

/// Every (column, op, flipped, literal, selection) on one reader.
fn check<R: RowAccessor>(what: &str, r: &R) -> usize {
    let plain = Plain(r);
    let mut cases = 0;
    for col in [I32_COL, I64_COL] {
        for op in OPS {
            for flipped in [false, true] {
                for lit in literals() {
                    for sel in selections(r.num_rows() as u32) {
                        let mut got = sel.clone();
                        let mut want = sel.clone();
                        r.filter_i64_cmp(col, op, lit, flipped, &mut got);
                        plain.filter_i64_cmp(col, op, lit, flipped, &mut want);
                        assert_eq!(
                            got, want,
                            "{what}: col {col} {op:?} lit {lit} flipped {flipped} over {sel:?}"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    cases
}

#[test]
fn reader_kernels_equal_the_default_implementation() {
    let s = schema();
    let mut nsm = NsmPageBuilder::new(Arc::clone(&s));
    let mut pax = PaxPageBuilder::new(Arc::clone(&s));
    for t in rows() {
        nsm.push(&t);
        pax.push(&t);
    }
    let (nsm, pax) = (nsm.seal(), pax.seal());
    let scrambled = permute_slots(&nsm);
    // The permutation really moved rows.
    assert_ne!(
        NsmReader::new(&nsm, &s).tuple_at(1),
        NsmReader::new(&scrambled, &s).tuple_at(1)
    );

    let mut cases = check("pax", &PaxReader::new(&pax, &s));
    cases += check("nsm", &NsmReader::new(&nsm, &s));
    cases += check("nsm/permuted", &NsmReader::new(&scrambled, &s));
    assert_eq!(cases, 3 * 2 * 6 * 2 * 15 * 5);
}

#[test]
fn the_default_is_a_real_filter() {
    // Guards the oracle itself: on a known column the default keeps what
    // arithmetic says it should.
    let s = schema();
    let mut b = PaxPageBuilder::new(Arc::clone(&s));
    for t in rows() {
        b.push(&t);
    }
    let page = b.seal();
    let r = PaxReader::new(&page, &s);
    let mut kept: Vec<u32> = (0..r.num_rows() as u32).collect();
    Plain(&r).filter_i64_cmp(I32_COL, CmpOp::Lt, 0, false, &mut kept);
    let want: Vec<u32> = (0..r.num_rows() as u32)
        .filter(|&row| r.i64_at(row as usize, I32_COL) < 0)
        .collect();
    assert!(!want.is_empty() && want.len() < r.num_rows());
    assert_eq!(kept, want);
    // Flipped: `0 < a`.
    let mut kept: Vec<u32> = (0..r.num_rows() as u32).collect();
    Plain(&r).filter_i64_cmp(I32_COL, CmpOp::Lt, 0, true, &mut kept);
    assert!(kept.iter().all(|&row| r.i64_at(row as usize, I32_COL) > 0));
}
