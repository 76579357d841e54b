//! Operator-kernel microbenchmarks and layout ablations.
//!
//! These isolate the design choices DESIGN.md calls out: NSM vs PAX decode
//! cost (the paper's central layout result), predicate short-circuiting,
//! and hash-join probe cost (plan order, and page-at-a-time vs the
//! row-at-a-time reference on Q14).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use smartssd_exec::spec::{BuildSide, ColRef, JoinOutput, JoinSpec, ScanAggSpec, TableRef};
use smartssd_exec::{
    join::{probe_page, JoinHashTable, JoinSink},
    scan_agg_page, WorkCounts,
};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Layout, Schema, TableBuilder, TableImage, Tuple};
use std::sync::Arc;

fn lineitem_like(layout: Layout, rows: i32) -> TableImage {
    let schema = smartssd_workload::tpch::lineitem_schema();
    let mut b = TableBuilder::new("l", schema, layout);
    b.extend(smartssd_workload::tpch::lineitem_rows(
        rows as f64 / 6_000_000.0,
        7,
    ));
    b.finish()
}

/// Q6's kernel on NSM vs PAX pages: the layout ablation.
fn bench_scan_agg_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/scan_agg_q6");
    let spec = ScanAggSpec {
        pred: Pred::And(vec![
            Pred::range_half_open(10, 731, 1096),
            Pred::between_exclusive(6, 5, 7),
            Pred::Cmp(CmpOp::Lt, Expr::col(4), Expr::lit(24)),
        ]),
        aggs: vec![AggSpec::sum(Expr::col(5).mul(Expr::col(6)))],
    };
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = lineitem_like(layout, 60_000);
        group.throughput(Throughput::Elements(img.num_rows()));
        group.bench_function(BenchmarkId::from_parameter(layout), |b| {
            b.iter(|| {
                let mut states = vec![smartssd_storage::expr::AggState::new(
                    smartssd_storage::expr::AggFunc::Sum,
                )];
                let mut w = WorkCounts::default();
                for p in img.pages() {
                    scan_agg_page(p, img.schema(), &spec, &mut states, &mut w);
                }
                (states[0].finish(), w.pred_atoms)
            })
        });
    }
    group.finish();
}

/// The same Q6 kernel via the tuple-at-a-time reference path: the
/// vectorization speedup is `scan_agg_q6` vs `scan_agg_q6_rowwise`.
fn bench_scan_agg_rowwise(c: &mut Criterion) {
    use smartssd_exec::reference::scan_agg_page_rowwise;
    let mut group = c.benchmark_group("kernel/scan_agg_q6_rowwise");
    let spec = ScanAggSpec {
        pred: Pred::And(vec![
            Pred::range_half_open(10, 731, 1096),
            Pred::between_exclusive(6, 5, 7),
            Pred::Cmp(CmpOp::Lt, Expr::col(4), Expr::lit(24)),
        ]),
        aggs: vec![AggSpec::sum(Expr::col(5).mul(Expr::col(6)))],
    };
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = lineitem_like(layout, 60_000);
        group.throughput(Throughput::Elements(img.num_rows()));
        group.bench_function(BenchmarkId::from_parameter(layout), |b| {
            b.iter(|| {
                let mut states = vec![smartssd_storage::expr::AggState::new(
                    smartssd_storage::expr::AggFunc::Sum,
                )];
                let mut w = WorkCounts::default();
                for p in img.pages() {
                    scan_agg_page_rowwise(p, img.schema(), &spec, &mut states, &mut w);
                }
                (states[0].finish(), w.pred_atoms)
            })
        });
    }
    group.finish();
}

/// Short-circuit ablation: selective leading atom vs non-selective.
fn bench_short_circuit(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/short_circuit");
    let img = lineitem_like(Layout::Pax, 60_000);
    // Selective first atom (quantity < 2, ~2%) vs always-true first atom.
    for (label, first_lit) in [("selective_first", 2i64), ("nonselective_first", 100)] {
        let spec = ScanAggSpec {
            pred: Pred::And(vec![
                Pred::Cmp(CmpOp::Lt, Expr::col(4), Expr::lit(first_lit)),
                Pred::between_exclusive(6, 5, 7),
                Pred::range_half_open(10, 731, 1096),
            ]),
            aggs: vec![AggSpec::count()],
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut states = vec![smartssd_storage::expr::AggState::new(
                    smartssd_storage::expr::AggFunc::Count,
                )];
                let mut w = WorkCounts::default();
                for p in img.pages() {
                    scan_agg_page(p, img.schema(), &spec, &mut states, &mut w);
                }
                w.pred_atoms
            })
        });
    }
    group.finish();
}

/// The selection kernels alone (`filter_select` on a reused selection
/// vector; no aggregation), by layout, by the selectivity of the atom that
/// sees every row, for one atom and for Q6's five-atom shape. The
/// compaction loops are branch-free, so a row costs the same whether it is
/// kept or dropped: time tracks the atoms evaluated (flat across
/// selectivity for one atom, rising with the rows that reach the later
/// atoms for five), where a compare-and-branch loop peaks at 50 %.
fn bench_filter_select(c: &mut Criterion) {
    use smartssd_exec::page_reader;
    use smartssd_storage::expr::EvalCounts;
    use smartssd_storage::{filter_select_with, EvalScratch, SelectionVector};
    // LINEITEM's record width (156 B), so the NSM stride is the paper's.
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("d", DataType::Int32),
        ("q", DataType::Int32),
        ("v", DataType::Int64),
        ("pad", DataType::Char(136)),
    ]);
    // Independent, unpredictable columns: k uniform on 0..1000 (so `k < t`
    // keeps t/1000), d on 0..11 and q on 1..51 as Q6's discount and quantity.
    let hash = |i: u64, salt: u64| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    let rows = |layout| {
        let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
        b.extend((0..60_000u64).map(|i| {
            vec![
                Datum::I32((hash(i, 1) % 1000) as i32),
                Datum::I32((hash(i, 2) % 11) as i32),
                Datum::I32((hash(i, 3) % 50) as i32 + 1),
                Datum::I64(i as i64),
                Datum::static_str(""),
            ] as Tuple
        }));
        b.finish()
    };
    let mut group = c.benchmark_group("kernel/filter_select");
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = rows(layout);
        group.throughput(Throughput::Elements(img.num_rows()));
        for (label, t) in [("0.1%", 1), ("2%", 20), ("50%", 500), ("100%", 1000)] {
            let one = Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(t));
            let five = Pred::And(vec![
                Pred::range_half_open(0, 0, t),
                Pred::between_exclusive(1, 5, 7),
                Pred::Cmp(CmpOp::Lt, Expr::col(2), Expr::lit(24)),
            ]);
            for (shape, pred) in [("one_atom", one), ("q6_five_atoms", five)] {
                let id = BenchmarkId::new(format!("{shape}/{layout}"), label);
                group.bench_function(id, |b| {
                    let mut sel = SelectionVector::new();
                    let mut scratch = EvalScratch::new();
                    b.iter(|| {
                        let mut counts = EvalCounts::default();
                        let mut kept = 0;
                        for p in img.pages() {
                            let r = page_reader(p, img.schema());
                            sel.reset_all(p.tuple_count() as usize);
                            filter_select_with(&pred, &r, &mut sel, &mut counts, &mut scratch);
                            kept += sel.len();
                        }
                        (kept, counts.atoms)
                    })
                });
            }
        }
    }
    group.finish();
}

fn synth_tables(layout: Layout) -> (TableImage, TableImage, Arc<Schema>) {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("payload", DataType::Int64),
        ("sel", DataType::Int32),
    ]);
    let mut build = TableBuilder::new("r", Arc::clone(&schema), layout);
    build.extend((0..2_000i32).map(|k| {
        vec![
            Datum::I32(k),
            Datum::I64(k as i64 * 10),
            Datum::I32(k % 100),
        ] as Tuple
    }));
    let mut probe = TableBuilder::new("s", Arc::clone(&schema), layout);
    probe.extend((0..60_000i32).map(|k| {
        vec![
            Datum::I32(k % 4_000), // half the keys miss
            Datum::I64(k as i64),
            Datum::I32(k % 100),
        ] as Tuple
    }));
    (build.finish(), probe.finish(), schema)
}

/// Hash probe kernel: filter-before-probe vs probe-before-filter (the
/// Figure 4 vs Figure 6 plan shapes).
fn bench_probe_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel/probe_order");
    let (build, probe, _schema) = synth_tables(Layout::Pax);
    for (label, filter_first) in [("filter_first", true), ("probe_first", false)] {
        let spec = JoinSpec {
            build: BuildSide {
                table: TableRef {
                    first_lba: 0,
                    num_pages: build.num_pages() as u64,
                    schema: build.schema().clone(),
                    layout: build.layout(),
                },
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 0,
            probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(2), Expr::lit(10)),
            filter_first,
            output: JoinOutput::Project(vec![ColRef::Probe(1), ColRef::Build(0)]),
        };
        let mut w = WorkCounts::default();
        let ht = JoinHashTable::build(build.pages(), &spec.build, &mut w);
        let joined = spec.joined_schema(probe.schema());
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut sink = JoinSink::new(&spec);
                let mut w = WorkCounts::default();
                for p in probe.pages() {
                    probe_page(p, probe.schema(), &spec, &ht, &joined, &mut sink, &mut w);
                }
                (sink.rows.len(), w.hash_probes)
            })
        });
    }
    group.finish();
}

/// Q14's probe (every LINEITEM row looked up in PART, matches filtered and
/// aggregated) on NSM and PAX pages: the page-at-a-time kernel against the
/// row-at-a-time reference, on the same hash table.
fn bench_join_probe_q14(c: &mut Criterion) {
    use smartssd_exec::reference::probe_page_rowwise;
    use smartssd_workload::{queries, tpch};
    type Probe = fn(
        &smartssd_storage::PageBuf,
        &Schema,
        &JoinSpec,
        &JoinHashTable,
        &Schema,
        &mut JoinSink,
        &mut WorkCounts,
    );
    let mut group = c.benchmark_group("kernel/join_probe_q14");
    for layout in [Layout::Nsm, Layout::Pax] {
        let lineitem = lineitem_like(layout, 60_000);
        let mut part = TableBuilder::new(queries::PART, tpch::part_schema(), layout);
        part.extend(tpch::part_rows(0.01, 7));
        let part = part.finish();
        let mut catalog = smartssd_query::Catalog::new();
        for (name, img) in [(queries::LINEITEM, &lineitem), (queries::PART, &part)] {
            let table = TableRef {
                first_lba: 0,
                num_pages: img.num_pages() as u64,
                schema: img.schema().clone(),
                layout,
            };
            catalog.register(name, table);
        }
        let smartssd_exec::QueryOp::Join { probe, spec } =
            smartssd_workload::q14().resolve(&catalog).unwrap()
        else {
            unreachable!("Q14 is a join")
        };
        let ht = JoinHashTable::build(part.pages(), &spec.build, &mut WorkCounts::default());
        let joined = spec.joined_schema(&probe.schema);
        group.throughput(Throughput::Elements(lineitem.num_rows()));
        let kernels: [(&str, Probe); 2] =
            [("vectorized", probe_page), ("rowwise", probe_page_rowwise)];
        for (label, kernel) in kernels {
            group.bench_function(BenchmarkId::new(label, layout), |b| {
                b.iter(|| {
                    let mut sink = JoinSink::new(&spec);
                    let mut w = WorkCounts::default();
                    for p in lineitem.pages() {
                        kernel(p, &probe.schema, &spec, &ht, &joined, &mut sink, &mut w);
                    }
                    (sink.matches, w.hash_probes)
                })
            });
        }
    }
    group.finish();
}

/// A table load as `System::load_table_rows` runs it, in rows a second:
/// rows generated one at a time and formatted into NSM or PAX pages, for
/// LINEITEM (five short strings a row) and `Synthetic64_S` (64 integers).
/// Generating inside the loop keeps each row in cache between generator and
/// builder, as in a load.
fn bench_page_build(c: &mut Criterion) {
    use smartssd_workload::{synthetic, tpch};
    let mut group = c.benchmark_group("kernel/page_build");
    type Rows = fn() -> Box<dyn Iterator<Item = Tuple>>;
    let tables: [(&str, Arc<Schema>, u64, Rows); 2] = [
        ("lineitem", tpch::lineitem_schema(), 12_000, || {
            Box::new(tpch::lineitem_rows(0.002, 3))
        }),
        (
            "synthetic64_s",
            synthetic::synthetic_schema(),
            4_000,
            || Box::new(synthetic::synthetic64_s(1e-5, 1e-3, 3)),
        ),
    ];
    for (table, schema, rows, gen) in tables {
        assert_eq!(gen().count() as u64, rows, "{table} row count");
        group.throughput(Throughput::Elements(rows));
        for layout in [Layout::Nsm, Layout::Pax] {
            group.bench_function(BenchmarkId::new(table, layout), |b| {
                b.iter(|| {
                    let mut t = TableBuilder::new("t", Arc::clone(&schema), layout);
                    t.extend(gen());
                    t.finish().num_pages()
                })
            });
        }
    }
    group.finish();
}

/// The cold-read page path, per layout over one LINEITEM page set: the
/// bare checksum kernel, first-touch validation (`PageBuf::from_bytes`)
/// with the pages in cache and with the caches swept before each pass (what
/// a cold figure cell pays: the image is tens of MB and was last touched a
/// load ago), and the pointer-identity memo that every later read takes.
fn bench_page_validate(c: &mut Criterion) {
    use smartssd_storage::{page::checksum64, PageBuf, PageDecodeCache};
    let mut group = c.benchmark_group("kernel/page_validate");
    // Larger than any last-level cache this runs on, and written, so it is
    // backed by pages of its own. Sized on first use: a filtered run that
    // skips the evicted lines never holds it.
    let mut sweep = Vec::new();
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = lineitem_like(layout, 60_000);
        group.throughput(Throughput::Elements(img.num_pages() as u64));
        group.bench_function(BenchmarkId::new("checksum", layout), |b| {
            b.iter(|| {
                img.pages()
                    .iter()
                    .fold(0u64, |h, p| h ^ checksum64(p.body()))
            })
        });
        let validate_all = || {
            img.pages()
                .iter()
                .filter(|p| PageBuf::from_bytes(p.raw().clone()).is_ok())
                .count()
        };
        group.bench_function(BenchmarkId::new("from_bytes", layout), |b| {
            b.iter(validate_all)
        });
        group.bench_function(BenchmarkId::new("from_bytes_evicted", layout), |b| {
            b.iter_batched(
                || {
                    sweep.resize(512 << 20, 1u8);
                    for line in sweep.chunks_exact_mut(64) {
                        line[0] = line[0].wrapping_add(1);
                    }
                },
                |()| validate_all(),
                BatchSize::PerIteration,
            )
        });
        let mut memo = PageDecodeCache::new();
        let mut decode_all = || {
            img.pages()
                .iter()
                .enumerate()
                .filter(|(lba, p)| memo.decode(*lba as u64, p.raw().clone()).is_ok())
                .count()
        };
        assert_eq!(decode_all(), img.num_pages(), "memo warmed");
        group.bench_function(BenchmarkId::new("decode_hit", layout), |b| {
            b.iter(&mut decode_all)
        });
    }
    group.finish();
}

/// TPC-H Q1's grouped-aggregation kernel on NSM vs PAX pages.
fn bench_group_agg_layouts(c: &mut Criterion) {
    use smartssd_exec::spec::GroupAggSpec;
    use smartssd_exec::{scan_group_agg_page, GroupTable};
    let mut group = c.benchmark_group("kernel/group_agg_q1");
    let spec = GroupAggSpec {
        pred: Pred::Cmp(CmpOp::Le, Expr::col(10), Expr::lit(2_437)),
        group_by: vec![8, 9], // returnflag, linestatus
        aggs: vec![
            AggSpec::sum(Expr::col(4)),
            AggSpec::sum(Expr::col(5)),
            AggSpec::sum(Expr::col(5).mul(Expr::lit(100).sub(Expr::col(6)))),
            AggSpec::count(),
        ],
    };
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = lineitem_like(layout, 60_000);
        group.throughput(Throughput::Elements(img.num_rows()));
        group.bench_function(BenchmarkId::from_parameter(layout), |b| {
            b.iter(|| {
                let mut acc = GroupTable::new();
                let mut w = WorkCounts::default();
                for p in img.pages() {
                    scan_group_agg_page(p, img.schema(), &spec, &mut acc, &mut w);
                }
                (acc.len(), w.agg_updates)
            })
        });
    }
    group.finish();
}

/// Q1's grouped aggregation via the tuple-at-a-time reference path
/// (`BTreeMap` accumulator, per-row tree walks).
fn bench_group_agg_rowwise(c: &mut Criterion) {
    use smartssd_exec::reference::{scan_group_agg_page_rowwise, RefGroupTable};
    use smartssd_exec::spec::GroupAggSpec;
    let mut group = c.benchmark_group("kernel/group_agg_q1_rowwise");
    let spec = GroupAggSpec {
        pred: Pred::Cmp(CmpOp::Le, Expr::col(10), Expr::lit(2_437)),
        group_by: vec![8, 9],
        aggs: vec![
            AggSpec::sum(Expr::col(4)),
            AggSpec::sum(Expr::col(5)),
            AggSpec::sum(Expr::col(5).mul(Expr::lit(100).sub(Expr::col(6)))),
            AggSpec::count(),
        ],
    };
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = lineitem_like(layout, 60_000);
        group.throughput(Throughput::Elements(img.num_rows()));
        group.bench_function(BenchmarkId::from_parameter(layout), |b| {
            b.iter(|| {
                let mut acc = RefGroupTable::new();
                let mut w = WorkCounts::default();
                for p in img.pages() {
                    scan_group_agg_page_rowwise(p, img.schema(), &spec, &mut acc, &mut w);
                }
                (acc.len(), w.agg_updates)
            })
        });
    }
    group.finish();
}

/// Wire codec round trip for a realistic operator.
fn bench_wire_codec(c: &mut Criterion) {
    let mut catalog = smartssd_query::Catalog::new();
    catalog.register(
        "lineitem",
        smartssd_exec::TableRef {
            first_lba: 0,
            num_pages: 10_000,
            schema: smartssd_workload::tpch::lineitem_schema(),
            layout: Layout::Pax,
        },
    );
    catalog.register(
        "part",
        smartssd_exec::TableRef {
            first_lba: 10_000,
            num_pages: 500,
            schema: smartssd_workload::tpch::part_schema(),
            layout: Layout::Pax,
        },
    );
    let op = smartssd_workload::q14().resolve(&catalog).unwrap();
    let bytes = smartssd_exec::encode_op(&op);
    c.bench_function("wire/encode_q14", |b| {
        b.iter(|| smartssd_exec::encode_op(&op))
    });
    c.bench_function("wire/decode_q14", |b| {
        b.iter(|| smartssd_exec::decode_op(&bytes).unwrap())
    });
}

criterion_group!(
    kernels,
    bench_scan_agg_layouts,
    bench_scan_agg_rowwise,
    bench_short_circuit,
    bench_filter_select,
    bench_probe_order,
    bench_join_probe_q14,
    bench_page_build,
    bench_page_validate,
    bench_group_agg_layouts,
    bench_group_agg_rowwise,
    bench_wire_codec
);
criterion_main!(kernels);
