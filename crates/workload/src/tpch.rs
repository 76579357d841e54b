//! TPC-H `LINEITEM` and `PART` with the paper's modifications.
//!
//! Section 4.1.1: "1. We use a fixed-length char string for the
//! variable-length column, 2. All decimal numbers are multiplied by 100 and
//! stored as integers, 3. All date values are converted to the number of
//! days since the last epoch." Every column is therefore `Int32`/`Int64`
//! or a fixed `Char(n)`.

use crate::dates::shipdate_range;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smartssd_storage::{DataType, Datum, Schema, Tuple};
use std::sync::Arc;

/// LINEITEM rows at scale factor 1 (the paper runs SF 100: 600 M rows,
/// ~90 GB).
pub const LINEITEM_ROWS_SF1: u64 = 6_000_000;

/// PART rows at scale factor 1 (SF 100: 20 M rows, ~3 GB).
pub const PART_ROWS_SF1: u64 = 200_000;

/// Column indexes into the LINEITEM schema, so queries read like TPC-H.
#[allow(missing_docs)]
pub mod lineitem_cols {
    pub const ORDERKEY: usize = 0;
    pub const PARTKEY: usize = 1;
    pub const SUPPKEY: usize = 2;
    pub const LINENUMBER: usize = 3;
    pub const QUANTITY: usize = 4;
    pub const EXTENDEDPRICE: usize = 5;
    pub const DISCOUNT: usize = 6;
    pub const TAX: usize = 7;
    pub const RETURNFLAG: usize = 8;
    pub const LINESTATUS: usize = 9;
    pub const SHIPDATE: usize = 10;
    pub const COMMITDATE: usize = 11;
    pub const RECEIPTDATE: usize = 12;
    pub const SHIPINSTRUCT: usize = 13;
    pub const SHIPMODE: usize = 14;
    pub const COMMENT: usize = 15;
}

/// Column indexes into the PART schema.
#[allow(missing_docs)]
pub mod part_cols {
    pub const PARTKEY: usize = 0;
    pub const NAME: usize = 1;
    pub const MFGR: usize = 2;
    pub const BRAND: usize = 3;
    pub const TYPE: usize = 4;
    pub const SIZE: usize = 5;
    pub const CONTAINER: usize = 6;
    pub const RETAILPRICE: usize = 7;
    pub const COMMENT: usize = 8;
}

/// The modified LINEITEM schema.
pub fn lineitem_schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("l_orderkey", DataType::Int64),
        ("l_partkey", DataType::Int64),
        ("l_suppkey", DataType::Int64),
        ("l_linenumber", DataType::Int32),
        ("l_quantity", DataType::Int32),
        ("l_extendedprice", DataType::Int64),
        ("l_discount", DataType::Int32),
        ("l_tax", DataType::Int32),
        ("l_returnflag", DataType::Char(1)),
        ("l_linestatus", DataType::Char(1)),
        ("l_shipdate", DataType::Int32),
        ("l_commitdate", DataType::Int32),
        ("l_receiptdate", DataType::Int32),
        ("l_shipinstruct", DataType::Char(25)),
        ("l_shipmode", DataType::Char(10)),
        ("l_comment", DataType::Char(44)),
    ])
}

/// The modified PART schema.
pub fn part_schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("p_partkey", DataType::Int64),
        ("p_name", DataType::Char(55)),
        ("p_mfgr", DataType::Char(25)),
        ("p_brand", DataType::Char(10)),
        ("p_type", DataType::Char(25)),
        ("p_size", DataType::Int32),
        ("p_container", DataType::Char(10)),
        ("p_retailprice", DataType::Int64),
        ("p_comment", DataType::Char(23)),
    ])
}

const SHIPINSTRUCT: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const SHIPMODE: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_S1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_S2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Retail price of a part, TPC-H formula: deterministic in the key.
/// Returned in cents (the paper's x100 integer convention).
fn retail_price_cents(partkey: u64) -> i64 {
    // TPC-H 4.2.3: p_retailprice =
    //   (90000 + ((p_partkey/10) mod 20001) + 100*(p_partkey mod 1000)) / 100
    // dollars; stored here in cents per the paper's x100 convention.
    (90_000 + ((partkey / 10) % 20_001) + 100 * (partkey % 1_000)) as i64
}

/// Generates LINEITEM rows for the given scale factor, deterministically
/// from `seed`.
pub fn lineitem_rows(sf: f64, seed: u64) -> impl Iterator<Item = Tuple> {
    let n = (LINEITEM_ROWS_SF1 as f64 * sf) as u64;
    let parts = ((PART_ROWS_SF1 as f64 * sf) as u64).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, ship_hi) = shipdate_range();
    (0..n).map(move |i| {
        let orderkey = (i / 4 + 1) as i64;
        let linenumber = (i % 4 + 1) as i32;
        let partkey = rng.gen_range(1..=parts) as i64;
        let suppkey = rng.gen_range(1..=(parts / 20).max(1)) as i64;
        let quantity: i32 = rng.gen_range(1..=50);
        // extendedprice = quantity * retail price of the part (in cents).
        let extprice = quantity as i64 * retail_price_cents(partkey as u64);
        let discount: i32 = rng.gen_range(0..=10); // 0.00..=0.10 scaled x100
        let tax: i32 = rng.gen_range(0..=8);
        let shipdate = rng.gen_range(0..ship_hi) as i32;
        let commitdate = shipdate + rng.gen_range(-30..=30).max(-shipdate);
        let receiptdate = shipdate + rng.gen_range(1..=30);
        let returnflag = if rng.gen_bool(0.25) {
            "R"
        } else if rng.gen_bool(0.5) {
            "A"
        } else {
            "N"
        };
        let linestatus = if rng.gen_bool(0.5) { "O" } else { "F" };
        let shipinstruct = SHIPINSTRUCT[rng.gen_range(0..SHIPINSTRUCT.len())];
        let shipmode = SHIPMODE[rng.gen_range(0..SHIPMODE.len())];
        vec![
            Datum::I64(orderkey),
            Datum::I64(partkey),
            Datum::I64(suppkey),
            Datum::I32(linenumber),
            Datum::I32(quantity),
            Datum::I64(extprice),
            Datum::I32(discount),
            Datum::I32(tax),
            Datum::static_str(returnflag),
            Datum::static_str(linestatus),
            Datum::I32(shipdate),
            Datum::I32(commitdate),
            Datum::I32(receiptdate),
            Datum::static_str(shipinstruct),
            Datum::static_str(shipmode),
            Datum::static_str("generated line item comment text"),
        ]
    })
}

/// Generates PART rows for the given scale factor.
pub fn part_rows(sf: f64, seed: u64) -> impl Iterator<Item = Tuple> {
    let n = ((PART_ROWS_SF1 as f64 * sf) as u64).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    (1..=n).map(move |partkey| {
        let t1 = TYPE_S1[rng.gen_range(0..TYPE_S1.len())];
        let t2 = TYPE_S2[rng.gen_range(0..TYPE_S2.len())];
        let t3 = TYPE_S3[rng.gen_range(0..TYPE_S3.len())];
        let p_type = format!("{t1} {t2} {t3}");
        let container = format!(
            "{} {}",
            CONTAINER_S1[rng.gen_range(0..CONTAINER_S1.len())],
            CONTAINER_S2[rng.gen_range(0..CONTAINER_S2.len())]
        );
        let brand = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
        vec![
            Datum::I64(partkey as i64),
            Datum::from(format!("part name {partkey}")),
            Datum::from(format!("Manufacturer#{}", rng.gen_range(1..=5))),
            Datum::from(brand),
            Datum::from(p_type),
            Datum::I32(rng.gen_range(1..=50)),
            Datum::from(container),
            Datum::I64(retail_price_cents(partkey)),
            Datum::static_str("part comment"),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dates::date_to_days;

    #[test]
    fn schema_widths_match_the_paper_shape() {
        // The paper reports ~51 LINEITEM tuples per 8 KB page; our modified
        // fixed-width schema lands in the same neighbourhood.
        let w = lineitem_schema().tuple_width();
        assert_eq!(w, 141, "lineitem tuple width");
        let per_page = smartssd_storage::nsm::capacity(w);
        assert!(
            (45..65).contains(&per_page),
            "{per_page} tuples/page, paper ~51"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<Tuple> = lineitem_rows(0.001, 42).collect();
        let b: Vec<Tuple> = lineitem_rows(0.001, 42).collect();
        assert_eq!(a.len(), 6_000);
        assert_eq!(a, b);
        let c: Vec<Tuple> = lineitem_rows(0.001, 43).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn q6_selectivity_is_near_paper() {
        // Paper: "The selectivity factor (0.6%) of this query".
        let rows: Vec<Tuple> = lineitem_rows(0.01, 1).collect();
        let lo = date_to_days(1994, 1, 1);
        let hi = date_to_days(1995, 1, 1);
        let hits = rows
            .iter()
            .filter(|t| {
                let ship = t[lineitem_cols::SHIPDATE].as_i64();
                let disc = t[lineitem_cols::DISCOUNT].as_i64();
                let qty = t[lineitem_cols::QUANTITY].as_i64();
                ship >= lo && ship < hi && disc > 5 && disc < 7 && qty < 24
            })
            .count();
        let sel = hits as f64 / rows.len() as f64;
        assert!(
            (0.003..0.010).contains(&sel),
            "Q6 selectivity {sel:.4}, paper ~0.006"
        );
    }

    #[test]
    fn part_keys_are_dense_and_promo_fraction_sane() {
        let rows: Vec<Tuple> = part_rows(0.01, 1).collect();
        assert_eq!(rows.len(), 2_000);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[part_cols::PARTKEY].as_i64(), i as i64 + 1);
        }
        let promo = rows
            .iter()
            .filter(|r| r[part_cols::TYPE].as_bytes().starts_with(b"PROMO"))
            .count();
        let frac = promo as f64 / rows.len() as f64;
        // One of six first syllables.
        assert!((0.12..0.22).contains(&frac), "promo fraction {frac:.3}");
    }

    #[test]
    fn lineitem_partkeys_reference_part() {
        let parts = ((PART_ROWS_SF1 as f64 * 0.001) as i64).max(1);
        for t in lineitem_rows(0.001, 7) {
            let pk = t[lineitem_cols::PARTKEY].as_i64();
            assert!(pk >= 1 && pk <= parts, "dangling partkey {pk}");
        }
    }

    #[test]
    fn values_respect_paper_encodings() {
        for t in lineitem_rows(0.0005, 3) {
            let disc = t[lineitem_cols::DISCOUNT].as_i64();
            assert!((0..=10).contains(&disc), "discount x100 in 0..=10");
            let qty = t[lineitem_cols::QUANTITY].as_i64();
            assert!((1..=50).contains(&qty));
            let ship = t[lineitem_cols::SHIPDATE].as_i64();
            assert!(ship >= 0, "dates are day numbers since the epoch");
            let price = t[lineitem_cols::EXTENDEDPRICE].as_i64();
            assert!(price > 0);
            // receipt strictly after ship.
            assert!(t[lineitem_cols::RECEIPTDATE].as_i64() > ship);
        }
    }

    #[test]
    fn sf_scales_row_counts() {
        assert_eq!(lineitem_rows(0.002, 1).count(), 12_000);
        assert_eq!(part_rows(0.002, 1).count(), 400);
    }

    /// The five LINEITEM strings come from constant vocabularies and are
    /// borrowed, so generating a row allocates only its `Vec`.
    #[test]
    fn lineitem_strings_borrow_static_text() {
        for t in lineitem_rows(0.0002, 9) {
            for d in &t {
                if let Datum::Str(s) = d {
                    assert!(matches!(s, std::borrow::Cow::Borrowed(_)), "{d} owned");
                }
            }
        }
    }

    #[test]
    fn rows_fit_declared_schemas() {
        let ls = lineitem_schema();
        let mut buf = Vec::new();
        for t in lineitem_rows(0.0002, 9) {
            buf.clear();
            smartssd_storage::tuple::encode(&ls, &t, &mut buf); // panics on mismatch
        }
        let ps = part_schema();
        for t in part_rows(0.0002, 9) {
            buf.clear();
            smartssd_storage::tuple::encode(&ps, &t, &mut buf);
        }
    }
}
