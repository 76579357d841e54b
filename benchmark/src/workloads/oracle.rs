//! Reference answers, computed once per seed, and the digest every
//! returned answer is reduced to before it is compared.
//!
//! Two independent references: the library's own row-at-a-time kernels
//! (`smartssd_exec::reference`) over the page images, and — for the
//! queries those kernels do not cover, and as a second opinion on Q6 —
//! plain arithmetic over the generated rows that shares no code with the
//! expression evaluator.

use smartssd::{Query, QueryResult};
use smartssd_exec::reference::{
    ref_group_table_rows, scan_agg_page_rowwise, scan_group_agg_page_rowwise, RefGroupTable,
};
use smartssd_exec::WorkCounts;
use smartssd_query::OpTemplate;
use smartssd_storage::expr::AggState;
use smartssd_storage::{Datum, TableImage, Tuple};
use smartssd_workload::dates::date_to_days;
use smartssd_workload::tpch::{lineitem_cols as l, part_cols as p};

/// An answer reduced to comparable integers: aggregate values, the
/// finalized scalar's bits, the row count and an order-independent digest
/// of the rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Answer {
    pub aggs: Vec<i128>,
    pub scalar_bits: Option<u64>,
    pub rows: u64,
    pub rows_digest: u64,
}

impl Answer {
    pub fn of(r: &QueryResult) -> Self {
        Self {
            aggs: r.agg_values.clone(),
            scalar_bits: r.scalar.map(f64::to_bits),
            ..Self::of_rows(&r.rows)
        }
    }

    pub fn of_rows(rows: &[Tuple]) -> Self {
        rows.iter().fold(Self::default(), |a, row| a.with_row(row))
    }

    /// The answer with one more output row.
    fn with_row(mut self, row: &[Datum]) -> Self {
        self.rows += 1;
        self.rows_digest = self.rows_digest.wrapping_add(row_digest(row));
        self
    }

    /// Folds the answer into a running FNV-1a digest.
    pub fn fold_into(&self, mut h: u64) -> u64 {
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for a in &self.aggs {
            eat(*a as u64);
            eat((*a >> 64) as u64);
        }
        eat(self.scalar_bits.unwrap_or(0));
        eat(self.rows);
        eat(self.rows_digest);
        h
    }
}

/// FNV-1a offset basis: the starting value for [`Answer::fold_into`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn row_digest(row: &[Datum]) -> u64 {
    let mut h = DIGEST_SEED;
    for d in row {
        let (tag, bytes): (u8, &[u8]) = match d {
            Datum::I32(v) => (0, &v.to_le_bytes()),
            Datum::I64(v) => (1, &v.to_le_bytes()),
            // Trailing spaces are padding the page codecs add.
            Datum::Str(s) => (2, s.trim_ascii_end()),
        };
        for &b in [tag].iter().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The answer the row-at-a-time reference kernels give for a scan+aggregate
/// or grouped-aggregate query over `img`; `None` for query shapes the
/// reference kernels do not cover (joins).
pub fn rowwise_reference(query: &Query, img: &TableImage) -> Option<Answer> {
    let mut w = WorkCounts::default();
    match &query.op {
        OpTemplate::ScanAgg { spec, .. } => {
            let mut states: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            for page in img.pages() {
                scan_agg_page_rowwise(page, img.schema(), spec, &mut states, &mut w);
            }
            let (aggs, scalar) = query.finalize.apply(&states);
            Some(Answer {
                aggs,
                scalar_bits: scalar.map(f64::to_bits),
                ..Answer::default()
            })
        }
        OpTemplate::GroupAgg { spec, .. } => {
            let mut acc = RefGroupTable::new();
            for page in img.pages() {
                scan_group_agg_page_rowwise(page, img.schema(), spec, &mut acc, &mut w);
            }
            let rows = ref_group_table_rows(&acc, &spec.key_schema(img.schema()));
            Some(Answer::of_rows(&rows))
        }
        _ => None,
    }
}

/// TPC-H Q6 straight from generated rows: `SUM(extendedprice * discount)`
/// over 1994 shipments with discount in (0.05, 0.07) and quantity < 24.
pub fn q6_from_rows(rows: impl Iterator<Item = Tuple>) -> Answer {
    let (lo, hi) = (date_to_days(1994, 1, 1), date_to_days(1995, 1, 1));
    let mut sum = 0i128;
    for r in rows {
        let ship = r[l::SHIPDATE].as_i64();
        let disc = r[l::DISCOUNT].as_i64();
        if ship >= lo && ship < hi && disc > 5 && disc < 7 && r[l::QUANTITY].as_i64() < 24 {
            sum += (r[l::EXTENDEDPRICE].as_i64() * disc) as i128;
        }
    }
    Answer {
        aggs: vec![sum],
        ..Answer::default()
    }
}

/// TPC-H Q14 straight from generated rows: promo revenue and total revenue
/// of September 1995 shipments, and their ratio in percent.
pub fn q14_from_rows(
    lineitem: impl Iterator<Item = Tuple>,
    part: impl Iterator<Item = Tuple>,
) -> Answer {
    let promo: std::collections::HashSet<i64> = part
        .filter(|r| r[p::TYPE].as_bytes().starts_with(b"PROMO"))
        .map(|r| r[p::PARTKEY].as_i64())
        .collect();
    let (lo, hi) = (date_to_days(1995, 9, 1), date_to_days(1995, 10, 1));
    let (mut num, mut den) = (0i128, 0i128);
    for r in lineitem {
        let ship = r[l::SHIPDATE].as_i64();
        if ship >= lo && ship < hi {
            let revenue = (r[l::EXTENDEDPRICE].as_i64() * (100 - r[l::DISCOUNT].as_i64())) as i128;
            den += revenue;
            if promo.contains(&r[l::PARTKEY].as_i64()) {
                num += revenue;
            }
        }
    }
    let scalar = if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    };
    Answer {
        aggs: vec![num, den],
        scalar_bits: Some(scalar.to_bits()),
        ..Answer::default()
    }
}

/// The selection-with-join straight from generated S rows: every foreign
/// key lands in R (dense keys), so the output is one `(S.col_1, R.col_2)`
/// pair per S row under the cutoff.
pub fn join_from_rows(
    s_rows: impl Iterator<Item = Tuple>,
    r_rows: &[Tuple],
    cutoff: i64,
) -> Answer {
    s_rows
        .filter(|s| s[2].as_i64() < cutoff)
        .fold(Answer::default(), |a, s| {
            let r = &r_rows[s[1].as_i64() as usize - 1];
            a.with_row(&[s[0].clone(), r[1].clone()])
        })
}
