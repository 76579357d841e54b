//! The scan-aggregate memo is invisible: a sequence of [`run_op`] calls on
//! one warm [`OpScratch`] answers, charges and times every call exactly as
//! the same call on a fresh scratch does.
//!
//! Two recording sites hold the same pages throughout. Between calls the
//! sequence changes what the memo keys on or what it holds: the spec, the
//! table's extent (moved to another first LBA, perhaps shorter), one page
//! swapped for a fresh buffer holding the same bytes or one holding other
//! bytes, and the schema the same LBAs are read with (two schemas of one
//! width, so the second reads the first's pages as other values). A row
//! scan in between must leave the memo as it was. Each `ScanAgg` call's
//! [`OpRun`](smartssd_exec::OpRun) (states, receipt total, batches and
//! their `ready_at`) and each site's whole call log must match.

mod common;

use common::RecordingSite;
use proptest::prelude::*;
use smartssd_exec::spec::{ScanAggSpec, ScanSpec};
use smartssd_exec::{run_op, OpScratch, QueryOp, TableRef};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Layout, PageBuf, Schema, TableBuilder, Tuple};
use std::sync::Arc;

/// The schema the pages are built with: two 8-byte integers.
fn wide() -> Arc<Schema> {
    Schema::from_pairs(&[("a", DataType::Int64), ("b", DataType::Int64)])
}

/// The same 16-byte width read as three columns: the first two see halves
/// of the first wide column.
fn narrow() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("a", DataType::Int32),
        ("b", DataType::Int32),
        ("c", DataType::Int64),
    ])
}

/// `n` rows of small values drawn from `seed`, enough for several pages.
fn pages(layout: Layout, seed: u64, n: usize) -> Vec<PageBuf> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 41) as i64 - 20
    };
    let mut b = TableBuilder::new("t", wide(), layout);
    b.extend((0..n).map(|_| vec![Datum::I64(next()), Datum::I64(next())] as Tuple));
    b.finish().pages().to_vec()
}

fn arb_cmp() -> BoxedStrategy<CmpOp> {
    (0usize..6)
        .prop_map(|i| {
            [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][i]
        })
        .boxed()
}

/// A column numeric in both schemas, or a literal.
fn arb_leaf() -> BoxedStrategy<Expr> {
    prop_oneof![
        (0usize..2).prop_map(Expr::col),
        (-20i64..=20).prop_map(Expr::lit)
    ]
    .boxed()
}

/// An integer expression of depth at most one over [`arb_leaf`]s.
fn arb_expr() -> BoxedStrategy<Expr> {
    prop_oneof![
        arb_leaf(),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| a.mul(b)),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
    ]
    .boxed()
}

fn arb_atom() -> BoxedStrategy<Pred> {
    (arb_cmp(), arb_expr(), arb_expr())
        .prop_map(|(op, a, b)| Pred::Cmp(op, a, b))
        .boxed()
}

fn arb_pred() -> BoxedStrategy<Pred> {
    prop_oneof![
        arb_atom(),
        Just(Pred::Const(true)),
        prop::collection::vec(arb_atom(), 0..3).prop_map(Pred::And),
        prop::collection::vec(arb_atom(), 0..3).prop_map(Pred::Or),
        arb_atom().prop_map(|p| Pred::Not(Box::new(p))),
    ]
    .boxed()
}

fn arb_agg() -> BoxedStrategy<AggSpec> {
    prop_oneof![
        arb_expr().prop_map(AggSpec::sum),
        Just(AggSpec::count()),
        arb_expr().prop_map(AggSpec::min),
        arb_expr().prop_map(AggSpec::max),
    ]
    .boxed()
}

fn arb_spec() -> BoxedStrategy<ScanAggSpec> {
    (arb_pred(), prop::collection::vec(arb_agg(), 1..4))
        .prop_map(|(pred, aggs)| ScanAggSpec { pred, aggs })
        .boxed()
}

/// One step of a sequence.
#[derive(Debug, Clone)]
enum Step {
    /// `ScanAgg` with the `spec`-th spec, the pages read with the wide
    /// schema or the narrow one.
    Run { spec: usize, narrow: bool },
    /// A row scan over the table on the same scratch.
    Scan,
    /// The table moves to a fresh first LBA, keeping its first `keep`
    /// pages (at least one).
    Move { keep: usize },
    /// Page `page` is replaced by a fresh buffer holding the same bytes.
    Copy { page: usize },
    /// Page `page` is replaced by the other image's page there.
    Swap { page: usize },
}

/// Runs are drawn twice as often as each other step, and mostly with the
/// wide schema, so that most runs find the memo warm.
fn arb_step() -> BoxedStrategy<Step> {
    prop_oneof![
        ((0usize..3), any::<bool>()).prop_map(|(spec, narrow)| Step::Run { spec, narrow }),
        ((0usize..3), Just(false)).prop_map(|(spec, narrow)| Step::Run { spec, narrow }),
        Just(Step::Scan),
        (1usize..8).prop_map(|keep| Step::Move { keep }),
        (0usize..8).prop_map(|page| Step::Copy { page }),
        (0usize..8).prop_map(|page| Step::Swap { page }),
    ]
    .boxed()
}

/// Runs `op` at `now` on the warm scratch and on a fresh one, each on its
/// own site, and checks that the two runs and the two call logs agree.
fn same_run(
    op: &QueryOp,
    now: u64,
    warm: (&mut RecordingSite, &mut OpScratch<u64>),
    fresh: &mut RecordingSite,
) -> Result<(), TestCaseError> {
    let a = run_op(warm.0, op, now, warm.1).unwrap();
    let b = run_op(fresh, op, now, &mut OpScratch::default()).unwrap();
    prop_assert_eq!(&a.last.aggs, &b.last.aggs);
    prop_assert_eq!(&a.last.rows, &b.last.rows);
    prop_assert_eq!(a.last.bytes, b.last.bytes);
    prop_assert_eq!(a.last.ready_at, b.last.ready_at);
    prop_assert_eq!(a.work, b.work);
    let ready =
        |r: &smartssd_exec::OpRun<u64>| -> Vec<u64> { r.full.iter().map(|f| f.ready_at).collect() };
    prop_assert_eq!(ready(&a), ready(&b));
    prop_assert_eq!(&warm.0.calls, &fresh.calls);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_warm_memo_runs_like_a_fresh_scratch(
        pax in any::<bool>(),
        seed in 1u64..u64::MAX,
        rows in 600usize..3_000,
        specs in prop::collection::vec(arb_spec(), 3..4),
        steps in prop::collection::vec(arb_step(), 1..16),
    ) {
        let layout = if pax { Layout::Pax } else { Layout::Nsm };
        let mut table = pages(layout, seed, rows);
        let other = pages(layout, seed.wrapping_mul(31).wrapping_add(7), rows);
        let (mut warm_site, mut fresh_site) = (RecordingSite::new(), RecordingSite::new());
        let mut first_lba = 5;
        for site in [&mut warm_site, &mut fresh_site] {
            site.load_pages(&table, first_lba);
        }
        let mut scratch = OpScratch::default();
        // Every step first runs the first spec, so the memo starts warm.
        let warm_up = Step::Run { spec: 0, narrow: false };
        for (t, step) in std::iter::once(&warm_up).chain(&steps).enumerate() {
            let replaced = match *step {
                Step::Run { .. } | Step::Scan => None,
                Step::Move { keep } => {
                    first_lba += table.len() as u64 + 3;
                    table.truncate(keep.min(table.len()));
                    Some((0, table.clone()))
                }
                Step::Copy { page } => {
                    let i = page % table.len();
                    table[i] = table[i].corrupted(0, 0);
                    Some((i, vec![table[i].clone()]))
                }
                Step::Swap { page } => {
                    let i = page % table.len().min(other.len());
                    table[i] = other[i].clone();
                    Some((i, vec![table[i].clone()]))
                }
            };
            if let Some((i, replaced)) = replaced {
                for site in [&mut warm_site, &mut fresh_site] {
                    site.load_pages(&replaced, first_lba + i as u64);
                }
                continue;
            }
            let schema = match *step {
                Step::Run { narrow: true, .. } => narrow(),
                _ => wide(),
            };
            let table_ref = TableRef {
                first_lba,
                num_pages: table.len() as u64,
                schema,
                layout,
            };
            let op = match *step {
                Step::Run { spec, .. } => QueryOp::ScanAgg {
                    table: table_ref,
                    spec: specs[spec].clone(),
                },
                _ => QueryOp::Scan {
                    table: table_ref,
                    spec: ScanSpec { pred: specs[1].pred.clone(), project: vec![1] },
                },
            };
            let now = 1_000 * t as u64;
            same_run(&op, now, (&mut warm_site, &mut scratch), &mut fresh_site)?;
        }
    }
}
