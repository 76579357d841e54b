//! Differential property tests: the vectorized kernels must agree with the
//! tuple-at-a-time reference kernels *exactly* — same output rows, same
//! aggregate states, same group tables, and bit-identical [`WorkCounts`]
//! receipts — on arbitrary schemas, layouts, row data, predicates,
//! projections, aggregates, and grouping keys. The receipts feed the
//! simulated cost model, so any divergence would silently change reported
//! timings; equality here is what makes the vectorization a pure
//! wall-clock optimization.
//!
//! The vectorized side runs the way the engines run it: one
//! [`ScanScratch`] per case, reused by every page, layout and kernel of the
//! case, so anything a page left behind in a buffer would surface as a
//! mismatch on the next; the join probe likewise keeps one [`JoinSink`]
//! for all the pages of a pass. The last property goes one level up: the
//! same operators through [`run_op`] — the loop both engines actually
//! execute — on the recording fake site.

mod common;

use common::RecordingSite;
use proptest::prelude::*;
use smartssd_exec::join::{probe_page, JoinHashTable, JoinSink};
use smartssd_exec::kernels::{group_table_rows, GroupTable, ScanScratch};
use smartssd_exec::reference::{
    probe_page_rowwise, ref_group_table_rows, scan_agg_page_rowwise, scan_group_agg_page_rowwise,
    scan_page_rowwise, RefGroupTable,
};
use smartssd_exec::spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec, ScanSpec,
};
use smartssd_exec::{run_op, OpScratch, QueryOp, TableRef, WorkCounts};
use smartssd_storage::expr::EvalCounts;
use smartssd_storage::expr::{AggSpec, AggState, CmpOp, Expr, Pred};
use smartssd_storage::{
    filter_select, DataType, Datum, Layout, RowAccessor, Schema, SelectionVector, TableBuilder,
    Tuple,
};
use std::sync::Arc;

/// An arbitrary column type. Char widths stay small so string literals of
/// comparable width are easy to generate.
fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int32),
        Just(DataType::Int64),
        (1u16..8).prop_map(DataType::Char),
    ]
}

/// A schema of 1..6 columns whose first column is always numeric, so every
/// generated schema has at least one column usable in arithmetic.
fn arb_schema() -> impl Strategy<Value = Arc<Schema>> {
    prop::collection::vec(arb_type(), 0..5).prop_map(|mut types| {
        types.insert(0, DataType::Int64);
        let cols: Vec<(String, DataType)> = types
            .into_iter()
            .enumerate()
            .map(|(i, t)| (format!("c{i}"), t))
            .collect();
        let pairs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Schema::from_pairs(&pairs)
    })
}

/// A datum for one column. Values stay in a narrow band so comparisons hit
/// all three orderings and products never overflow.
fn arb_datum(ty: DataType) -> BoxedStrategy<Datum> {
    match ty {
        DataType::Int32 => (-20i32..=20).prop_map(Datum::I32).boxed(),
        DataType::Int64 => (-20i64..=20).prop_map(Datum::I64).boxed(),
        DataType::Char(w) => prop::collection::vec(b'a'..=b'd', 0..=w as usize)
            .prop_map(|v| Datum::Str(v.into()))
            .boxed(),
    }
}

/// Column indices by kind.
fn split_cols(schema: &Schema) -> (Vec<usize>, Vec<(usize, u16)>) {
    let mut numeric = Vec::new();
    let mut chars = Vec::new();
    for (i, c) in schema.columns().iter().enumerate() {
        match c.ty {
            DataType::Int32 | DataType::Int64 => numeric.push(i),
            DataType::Char(w) => chars.push((i, w)),
        }
    }
    (numeric, chars)
}

/// Picks one element of a non-empty list.
fn pick<T: Clone + std::fmt::Debug + 'static>(items: Vec<T>) -> BoxedStrategy<T> {
    let n = items.len();
    (0..n).prop_map(move |i| items[i].clone()).boxed()
}

fn arb_cmp_op() -> BoxedStrategy<CmpOp> {
    pick(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

/// An arbitrary integer expression over the numeric columns.
fn arb_expr(numeric: Vec<usize>, chars: Vec<(usize, u16)>, depth: u32) -> BoxedStrategy<Expr> {
    let lit = (-20i64..=20).prop_map(Expr::Lit).boxed();
    let leaf = if numeric.is_empty() {
        lit
    } else {
        prop_oneof![pick(numeric.clone()).prop_map(Expr::Col), lit].boxed()
    };
    if depth == 0 {
        return leaf;
    }
    let sub = arb_expr(numeric.clone(), chars.clone(), depth - 1);
    let sub2 = arb_expr(numeric.clone(), chars.clone(), depth - 1);
    let case = (
        arb_pred(numeric.clone(), chars.clone(), depth - 1),
        arb_expr(numeric.clone(), chars.clone(), 0),
        arb_expr(numeric, chars, 0),
    );
    prop_oneof![
        leaf,
        (sub, sub2).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
        arb_expr_pair_mul(depth - 1),
        case.prop_map(|(when, then, otherwise)| Expr::Case {
            when: Box::new(when),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }),
    ]
    .boxed()
}

/// Literal-only multiply so nested arithmetic cannot overflow `i64`.
fn arb_expr_pair_mul(_depth: u32) -> BoxedStrategy<Expr> {
    ((-20i64..=20), (-20i64..=20))
        .prop_map(|(a, b)| Expr::Mul(Box::new(Expr::Lit(a)), Box::new(Expr::Lit(b))))
        .boxed()
}

/// An arbitrary predicate exercising every `Pred` variant the schema
/// supports.
fn arb_pred(numeric: Vec<usize>, chars: Vec<(usize, u16)>, depth: u32) -> BoxedStrategy<Pred> {
    let cmp = (
        arb_cmp_op(),
        arb_expr(numeric.clone(), chars.clone(), depth.min(1)),
        arb_expr(numeric.clone(), chars.clone(), depth.min(1)),
    )
        .prop_map(|(op, a, b)| Pred::Cmp(op, a, b))
        .boxed();
    let mut leaves: Vec<(u32, BoxedStrategy<Pred>)> =
        vec![(3, cmp), (1, any::<bool>().prop_map(Pred::Const).boxed())];
    if !chars.is_empty() {
        let strcmp = (
            pick(chars.clone()),
            arb_cmp_op(),
            prop::collection::vec(b'a'..=b'd', 0..3),
        )
            .prop_map(|((col, _), op, lit)| Pred::StrCmp {
                col,
                op,
                lit: lit.into(),
            })
            .boxed();
        let like = (
            pick(chars.clone()),
            prop::collection::vec(b'a'..=b'd', 0..3),
        )
            .prop_map(|((col, _), prefix)| Pred::LikePrefix {
                col,
                prefix: prefix.into(),
            })
            .boxed();
        leaves.push((2, strcmp));
        leaves.push((2, like));
    }
    let leaf = Union::new(leaves).boxed();
    if depth == 0 {
        return leaf;
    }
    let sub = || arb_pred(numeric.clone(), chars.clone(), depth - 1);
    prop_oneof![
        leaf,
        prop::collection::vec(sub(), 0..3).prop_map(Pred::And),
        prop::collection::vec(sub(), 0..3).prop_map(Pred::Or),
        sub().prop_map(|p| Pred::Not(Box::new(p))),
    ]
    .boxed()
}

/// An arbitrary aggregate list.
fn arb_aggs(numeric: Vec<usize>, chars: Vec<(usize, u16)>) -> BoxedStrategy<Vec<AggSpec>> {
    let one = prop_oneof![
        arb_expr(numeric.clone(), chars.clone(), 1).prop_map(AggSpec::sum),
        Just(AggSpec::count()),
        arb_expr(numeric.clone(), chars.clone(), 1).prop_map(AggSpec::min),
        arb_expr(numeric, chars, 1).prop_map(AggSpec::max),
    ]
    .boxed();
    prop::collection::vec(one, 1..4).boxed()
}

/// Everything one differential case needs.
#[derive(Debug, Clone)]
struct Case {
    schema: Arc<Schema>,
    rows: Vec<Tuple>,
    pred: Pred,
    project: Vec<usize>,
    aggs: Vec<AggSpec>,
    group_by: Vec<usize>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    arb_schema().prop_flat_map(|schema| {
        let (numeric, chars) = split_cols(&schema);
        let per_row: Vec<BoxedStrategy<Datum>> =
            schema.columns().iter().map(|c| arb_datum(c.ty)).collect();
        let all: Vec<usize> = (0..schema.len()).collect();
        let s = Arc::clone(&schema);
        (
            prop::collection::vec(per_row, 1..250),
            arb_pred(numeric.clone(), chars.clone(), 2),
            prop::collection::vec(pick(all.clone()), 1..4),
            arb_aggs(numeric, chars),
            prop::collection::vec(pick(all), 1..3),
        )
            .prop_map(move |(rows, pred, project, aggs, mut group_by)| {
                // Duplicate grouping columns would collide in the projected
                // key schema; keep first occurrences.
                let mut seen = [false; 16];
                group_by.retain(|&c| !std::mem::replace(&mut seen[c], true));
                Case {
                    schema: Arc::clone(&s),
                    rows,
                    pred,
                    project,
                    aggs,
                    group_by,
                }
            })
    })
}

fn build(case: &Case, layout: Layout) -> smartssd_storage::TableImage {
    image(&case.schema, &case.rows, layout)
}

/// The build side's columns: the key, then three payload candidates.
fn build_schema() -> Arc<Schema> {
    Schema::from_pairs(&[
        ("k", DataType::Int64),
        ("p32", DataType::Int32),
        ("ps", DataType::Char(3)),
        ("p64", DataType::Int64),
    ])
}

/// Payload column order, deliberately not the build schema's.
const PAYLOAD: [usize; 3] = [3, 2, 1];

/// A join over an arbitrary probe table (key: its first column, values
/// -20..=20) and a build table whose keys cover only -8..=12, most of them
/// several times over, so probe rows meet missing keys and fan-out both.
#[derive(Debug, Clone)]
struct JoinCase {
    probe_schema: Arc<Schema>,
    probe_rows: Vec<Tuple>,
    build_rows: Vec<Tuple>,
    pred: Pred,
    project: Vec<ColRef>,
    /// Over the joined schema: probe columns, then the payload.
    aggs: Vec<AggSpec>,
}

fn arb_join_case() -> impl Strategy<Value = JoinCase> {
    arb_schema().prop_flat_map(|schema| {
        let (numeric, chars) = split_cols(&schema);
        let n = schema.len();
        let per_row: Vec<BoxedStrategy<Datum>> =
            schema.columns().iter().map(|c| arb_datum(c.ty)).collect();
        let build_row = (
            (-8i64..=12).prop_map(Datum::I64),
            arb_datum(DataType::Int32),
            arb_datum(DataType::Char(3)),
            arb_datum(DataType::Int64),
        )
            .prop_map(|(k, a, b, c)| vec![k, a, b, c]);
        let cols: Vec<ColRef> = (0..n)
            .map(ColRef::Probe)
            .chain((0..PAYLOAD.len()).map(ColRef::Build))
            .collect();
        // Payload order is (Int64, Char(3), Int32) after the probe columns.
        let joined_numeric: Vec<usize> = numeric.iter().copied().chain([n, n + 2]).collect();
        let joined_chars: Vec<(usize, u16)> = chars.iter().copied().chain([(n + 1, 3)]).collect();
        let s = Arc::clone(&schema);
        (
            prop::collection::vec(per_row, 1..250),
            prop::collection::vec(build_row, 0..60),
            arb_pred(numeric, chars, 2),
            prop::collection::vec(pick(cols), 0..4),
            arb_aggs(joined_numeric, joined_chars),
        )
            .prop_map(
                move |(probe_rows, build_rows, pred, project, aggs)| JoinCase {
                    probe_schema: Arc::clone(&s),
                    probe_rows,
                    build_rows,
                    pred,
                    project,
                    aggs,
                },
            )
    })
}

fn image(schema: &Arc<Schema>, rows: &[Tuple], layout: Layout) -> smartssd_storage::TableImage {
    let mut b = TableBuilder::new("t", Arc::clone(schema), layout);
    b.extend(rows.iter().cloned());
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `probe_page` ≡ `probe_page_rowwise` on the same flat table: output
    /// rows in the same order, aggregate states, match count and the
    /// receipt of every page, for both probe orders and both output
    /// shapes; and the table's grant size is the per-distinct-key formula
    /// the device's memory grant was calibrated with.
    #[test]
    fn join_probe_matches_reference(case in arb_join_case()) {
        for layout in [Layout::Nsm, Layout::Pax] {
            let probe = image(&case.probe_schema, &case.probe_rows, layout);
            let build = image(&build_schema(), &case.build_rows, layout);
            let side = BuildSide {
                table: TableRef {
                    first_lba: 0,
                    num_pages: build.num_pages() as u64,
                    schema: Arc::clone(build.schema()),
                    layout,
                },
                key_col: 0,
                payload: PAYLOAD.to_vec(),
            };
            let mut w_build = WorkCounts::default();
            let ht = JoinHashTable::build(build.pages(), &side, &mut w_build);
            let rows = case.build_rows.len() as u64;
            prop_assert_eq!(ht.len(), rows);
            prop_assert_eq!(w_build.hash_builds, rows);
            prop_assert_eq!(w_build.values, 4 * rows);
            let mut keys: Vec<i64> = case.build_rows.iter().map(|t| t[0].as_i64()).collect();
            keys.sort_unstable();
            keys.dedup();
            prop_assert_eq!(ht.memory_bytes(), rows * 15 + keys.len() as u64 * 48);

            let outputs = [
                JoinOutput::Project(case.project.clone()),
                JoinOutput::Aggregate(case.aggs.clone()),
            ];
            for (output, filter_first) in outputs.into_iter().flat_map(|o| [(o.clone(), true), (o, false)]) {
                let spec = JoinSpec {
                    build: side.clone(),
                    probe_key: 0,
                    probe_pred: case.pred.clone(),
                    filter_first,
                    output,
                };
                prop_assert!(spec.validate(probe.schema()).is_ok());
                let joined = spec.joined_schema(probe.schema());
                let (mut sink_v, mut sink_r) = (JoinSink::new(&spec), JoinSink::new(&spec));
                for p in probe.pages() {
                    let (mut w_v, mut w_r) = (WorkCounts::default(), WorkCounts::default());
                    probe_page(p, probe.schema(), &spec, &ht, &joined, &mut sink_v, &mut w_v);
                    probe_page_rowwise(p, probe.schema(), &spec, &ht, &joined, &mut sink_r, &mut w_r);
                    prop_assert_eq!(w_v, w_r);
                }
                prop_assert_eq!(&sink_v.rows, &sink_r.rows);
                prop_assert_eq!(&sink_v.aggs, &sink_r.aggs);
                prop_assert_eq!(sink_v.matches, sink_r.matches);
            }
        }
    }

    /// `scan_page` ≡ `scan_page_rowwise`: rows, qualifying count, receipts.
    #[test]
    fn scan_matches_reference(case in arb_case()) {
        let mut scratch = ScanScratch::default();
        for layout in [Layout::Nsm, Layout::Pax] {
            let img = build(&case, layout);
            let spec = ScanSpec { pred: case.pred.clone(), project: case.project.clone() };
            let (mut out_v, mut w_v) = (Vec::new(), WorkCounts::default());
            let (mut out_r, mut w_r) = (Vec::new(), WorkCounts::default());
            let mut q_v = 0;
            let mut q_r = 0;
            for p in img.pages() {
                q_v += scratch.scan_page(p, img.schema(), &spec, &mut out_v, &mut w_v);
                q_r += scan_page_rowwise(p, img.schema(), &spec, &mut out_r, &mut w_r);
            }
            prop_assert_eq!(q_v, q_r);
            prop_assert_eq!(&out_v, &out_r);
            prop_assert_eq!(w_v, w_r);
        }
    }

    /// `scan_agg_page` ≡ `scan_agg_page_rowwise`: states and receipts.
    #[test]
    fn scan_agg_matches_reference(case in arb_case()) {
        let mut scratch = ScanScratch::default();
        for layout in [Layout::Nsm, Layout::Pax] {
            let img = build(&case, layout);
            let spec = ScanAggSpec { pred: case.pred.clone(), aggs: case.aggs.clone() };
            let mut st_v: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            let mut st_r = st_v.clone();
            let (mut w_v, mut w_r) = (WorkCounts::default(), WorkCounts::default());
            for p in img.pages() {
                scratch.scan_agg_page(p, img.schema(), &spec, &mut st_v, &mut w_v);
                scan_agg_page_rowwise(p, img.schema(), &spec, &mut st_r, &mut w_r);
            }
            prop_assert_eq!(&st_v, &st_r);
            prop_assert_eq!(w_v, w_r);
        }
    }

    /// `scan_group_agg_page` ≡ `scan_group_agg_page_rowwise`: group count,
    /// materialized rows in key order, and receipts. This pins the
    /// open-addressing table to the `BTreeMap` reference.
    #[test]
    fn group_agg_matches_reference(case in arb_case()) {
        let mut scratch = ScanScratch::default();
        for layout in [Layout::Nsm, Layout::Pax] {
            let img = build(&case, layout);
            let spec = GroupAggSpec {
                pred: case.pred.clone(),
                group_by: case.group_by.clone(),
                aggs: case.aggs.clone(),
            };
            let mut acc_v = GroupTable::new();
            let mut acc_r = RefGroupTable::new();
            let (mut w_v, mut w_r) = (WorkCounts::default(), WorkCounts::default());
            for p in img.pages() {
                scratch.scan_group_agg_page(p, img.schema(), &spec, &mut acc_v, &mut w_v);
                scan_group_agg_page_rowwise(p, img.schema(), &spec, &mut acc_r, &mut w_r);
            }
            prop_assert_eq!(acc_v.len(), acc_r.len());
            let key_schema = spec.key_schema(img.schema());
            prop_assert_eq!(
                group_table_rows(&acc_v, &key_schema),
                ref_group_table_rows(&acc_r, &key_schema)
            );
            prop_assert_eq!(w_v, w_r);
        }
    }

    /// Every single-table operator through the driver ≡ the reference
    /// kernels folded over the same pages: rows (across however many
    /// batches the buffer size cut), aggregate states, group rows, the
    /// run's total receipt, and the per-page receipts the site was charged.
    #[test]
    fn driver_matches_reference(case in arb_case(), cut in 1u64..2_000) {
        for layout in [Layout::Nsm, Layout::Pax] {
            let img = build(&case, layout);
            let schema = img.schema();
            let mut site = RecordingSite::new();
            site.cut = cut;
            let table = site.load(&img, 0);

            let spec = ScanSpec { pred: case.pred.clone(), project: case.project.clone() };
            let (mut rows_r, mut w_r) = (Vec::new(), Vec::new());
            for p in img.pages() {
                let mut w = WorkCounts::default();
                scan_page_rowwise(p, schema, &spec, &mut rows_r, &mut w);
                w_r.push(w);
            }
            let op = QueryOp::Scan { table: table.clone(), spec };
            let run = run_op(&mut site, &op, 0, &mut OpScratch::default()).unwrap();
            let rows_v: Vec<Tuple> =
                run.full.into_iter().flat_map(|b| b.rows).chain(run.last.rows).collect();
            prop_assert_eq!(rows_v, rows_r);
            prop_assert_eq!(run.work, total(&w_r));
            prop_assert_eq!(site.charges(), w_r);

            let spec = ScanAggSpec { pred: case.pred.clone(), aggs: case.aggs.clone() };
            let mut st_r: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            let mut w_r = Vec::new();
            for p in img.pages() {
                let mut w = WorkCounts::default();
                scan_agg_page_rowwise(p, schema, &spec, &mut st_r, &mut w);
                w_r.push(w);
            }
            site.calls.clear();
            let op = QueryOp::ScanAgg { table: table.clone(), spec };
            let run = run_op(&mut site, &op, 0, &mut OpScratch::default()).unwrap();
            prop_assert_eq!(run.last.aggs, Some(st_r));
            prop_assert_eq!(run.work, total(&w_r));
            prop_assert_eq!(site.charges(), w_r);

            let spec = GroupAggSpec {
                pred: case.pred.clone(),
                group_by: case.group_by.clone(),
                aggs: case.aggs.clone(),
            };
            let mut acc_r = RefGroupTable::new();
            let mut w_r = Vec::new();
            for p in img.pages() {
                let mut w = WorkCounts::default();
                scan_group_agg_page_rowwise(p, schema, &spec, &mut acc_r, &mut w);
                w_r.push(w);
            }
            let groups_r = ref_group_table_rows(&acc_r, &spec.key_schema(schema));
            site.calls.clear();
            let op = QueryOp::GroupAgg { table, spec };
            let run = run_op(&mut site, &op, 0, &mut OpScratch::default()).unwrap();
            prop_assert_eq!(run.last.rows, groups_r);
            prop_assert_eq!(run.work, total(&w_r));
            prop_assert_eq!(site.charges(), w_r);
        }
    }
}

fn total(receipts: &[WorkCounts]) -> WorkCounts {
    receipts.iter().fold(WorkCounts::default(), |mut acc, w| {
        acc.absorb(w);
        acc
    })
}

/// Q6 over LINEITEM at SF 0.01 — the predicate, image and scale behind the
/// benchmark's kernel probes — tallies exactly the row-at-a-time work on
/// both layouts: `EvalCounts` of the filter alone and the `WorkCounts`
/// receipt (and answer) of the whole scan-aggregate. These counts price
/// every simulated Q6 figure.
#[test]
fn q6_on_lineitem_counts_equal_the_rowwise_reference() {
    use smartssd_workload::{q6, queries, tpch};
    let smartssd_query::OpTemplate::ScanAgg { spec, .. } = q6().op else {
        unreachable!("Q6 is a scan-aggregate")
    };
    let mut receipts = Vec::new();
    for layout in [Layout::Nsm, Layout::Pax] {
        let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), layout);
        b.extend(tpch::lineitem_rows(0.01, 42));
        let img = b.finish();
        let schema = img.schema();

        let (mut ev_v, mut ev_r) = (EvalCounts::default(), EvalCounts::default());
        let (mut kept_v, mut kept_r) = (0, 0);
        let mut scratch = ScanScratch::default();
        let mut st_v: Vec<AggState> = spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
        let mut st_r = st_v.clone();
        let (mut w_v, mut w_r) = (WorkCounts::default(), WorkCounts::default());
        for p in img.pages() {
            let r = smartssd_exec::page_reader(p, schema);
            let mut sel = SelectionVector::with_all(r.num_rows());
            filter_select(&spec.pred, &r, &mut sel, &mut ev_v);
            kept_v += sel.len();
            kept_r += (0..r.num_rows())
                .filter(|&row| spec.pred.eval_counted(&r, row, &mut ev_r))
                .count();
            scratch.scan_agg_page(p, schema, &spec, &mut st_v, &mut w_v);
            scan_agg_page_rowwise(p, schema, &spec, &mut st_r, &mut w_r);
        }
        assert_eq!(ev_v, ev_r, "{layout:?}");
        assert_eq!(kept_v, kept_r, "{layout:?}");
        assert_eq!(st_v, st_r, "{layout:?}");
        assert_eq!(w_v, w_r, "{layout:?}");
        assert_eq!(w_v.tuples(), img.num_rows() as u64);
        // Q6 keeps well under 1 % of LINEITEM, and the short-circuit makes
        // its five atoms cost under two a tuple.
        assert!(kept_v > 0 && kept_v * 100 < img.num_rows() as usize);
        assert!(ev_v.atoms > w_v.tuples() && ev_v.atoms < 2 * w_v.tuples());
        receipts.push((ev_v, kept_v, st_v));
    }
    // Layout changes the per-tuple charge, never the logical work.
    assert_eq!(receipts[0], receipts[1]);
}
