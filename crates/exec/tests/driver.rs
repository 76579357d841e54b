//! The operator driver's contract with its site, pinned call by call.
//!
//! [`run_op`] is the one loop both engines run; what it asks of an
//! [`OpSite`](smartssd_exec::OpSite), and in which order, *is* the simulated
//! timing. Each test runs one operator on the recording fake and compares
//! the whole call sequence: which pages are read (and whether shareably),
//! every page read issued at its stream's start, then one
//! charge per page in page order at that page's arrival with that page's
//! own receipt; the join's build charged before the probe side is read; the
//! grant checked after the build and after every `GroupAgg` page as it is
//! consumed (and nothing read after a refusal); and row streams cut at the
//! configured batch size, each batch stamped with its page's completion.

mod common;

use common::{Call, RecordingSite, Refused, READ_TICKS};
use smartssd_exec::join::{JoinHashTable, JoinSink};
use smartssd_exec::reference::{
    probe_page_rowwise, scan_agg_page_rowwise, scan_group_agg_page_rowwise, scan_page_rowwise,
    RefGroupTable,
};
use smartssd_exec::spec::{
    BuildSide, ColRef, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec, ScanSpec,
};
use smartssd_exec::{group_table_memory_bytes, run_op, GroupTable, OpScratch, QueryOp, WorkCounts};
use smartssd_storage::expr::{AggSpec, AggState, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Layout, Schema, TableBuilder, TableImage, Tuple};

const NOW: u64 = 1_000;

/// `(k, v)` rows, `k = i`, `v = 2i`: 12-byte tuples, several pages.
fn table(layout: Layout, n: i32) -> TableImage {
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
    let mut b = TableBuilder::new("t", s, layout);
    b.extend((0..n).map(|i| vec![Datum::I32(i), Datum::I64(i as i64 * 2)] as Tuple));
    b.finish()
}

/// The calls a streamed table read followed by one charge per page must
/// make: every page is read in LBA order, issued at the stream's start
/// `at`, and once the stream ends the i-th page, which arrived
/// `READ_TICKS * (i + 1)` after `at` on the idle channel, is charged there
/// with `receipts[i]`.
fn table_scan_calls(
    first_lba: u64,
    at: u64,
    shareable: bool,
    receipts: &[WorkCounts],
) -> Vec<Call> {
    let pages = receipts.len() as u64;
    let mut calls = reads(first_lba, pages, at, shareable);
    let mut cpu_free = 0;
    for (i, w) in receipts.iter().enumerate() {
        let arrival = at + READ_TICKS * (i as u64 + 1);
        calls.push(charge(&mut cpu_free, arrival, w));
    }
    calls
}

/// One stream's reads: `pages` pages from `first_lba` on, every one issued
/// at the stream's start `at`.
fn reads(first_lba: u64, pages: u64, at: u64, shareable: bool) -> Vec<Call> {
    (first_lba..first_lba + pages)
        .map(|lba| Call::ReadPage { lba, at, shareable })
        .collect()
}

/// The charge the fake's serial processor (free from `cpu_free` on) makes
/// of a receipt whose pages arrived at `arrival`.
fn charge(cpu_free: &mut u64, arrival: u64, w: &WorkCounts) -> Call {
    *cpu_free = arrival.max(*cpu_free) + 1 + w.tuples();
    Call::Charge {
        at: arrival,
        work: *w,
        done: *cpu_free,
    }
}

/// The completion instant of every charge in `calls`, in order.
fn charge_dones(calls: &[Call]) -> Vec<u64> {
    calls
        .iter()
        .filter_map(|c| match c {
            Call::Charge { done, .. } => Some(*done),
            _ => None,
        })
        .collect()
}

#[test]
fn scan_charges_each_page_at_its_arrival_and_cuts_batches_at_the_buffer_size() {
    for layout in [Layout::Nsm, Layout::Pax] {
        let img = table(layout, 4_000);
        let mut site = RecordingSite::new();
        let tref = site.load(&img, 7);
        // 8-byte output rows; cut at 2,000 bytes = 250 rows.
        site.cut = 2_000;
        let spec = ScanSpec {
            pred: Pred::Cmp(CmpOp::Ge, Expr::col(0), Expr::lit(100)),
            project: vec![1],
        };
        let (mut receipts, mut rows, mut page_rows) = (Vec::new(), Vec::new(), Vec::new());
        for p in img.pages() {
            let mut w = WorkCounts::default();
            page_rows.push(scan_page_rowwise(p, img.schema(), &spec, &mut rows, &mut w));
            receipts.push(w);
        }
        assert!(receipts.len() >= 4, "want a multi-page table");
        let op = QueryOp::Scan {
            table: tref,
            spec: spec.clone(),
        };
        let run = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap();

        let want = table_scan_calls(7, NOW, true, &receipts);
        assert_eq!(site.calls, want, "{layout:?}");
        assert_eq!(run.work, receipts.iter().fold(WorkCounts::default(), sum));

        // Batches: cut after the first page that brings the pending rows to
        // the buffer size, stamped with that page's completion.
        let dones = charge_dones(&want);
        let mut pending = 0u64;
        let mut cuts = Vec::new();
        for (i, n) in page_rows.iter().enumerate() {
            pending += *n as u64;
            if pending * 8 >= site.cut {
                cuts.push((pending, dones[i]));
                pending = 0;
            }
        }
        assert!(cuts.len() >= 2, "want several cuts, got {cuts:?}");
        assert_eq!(run.full.len(), cuts.len());
        for (batch, (n, done)) in run.full.iter().zip(&cuts) {
            assert_eq!(batch.rows.len() as u64, *n);
            assert_eq!(batch.bytes, n * 8);
            assert_eq!(batch.ready_at, *done);
            assert!(batch.aggs.is_none());
        }
        assert_eq!(run.last.rows.len() as u64, pending);
        assert_eq!(run.last.bytes, pending * 8);
        assert_eq!(run.last.ready_at, *dones.last().unwrap());
        let got: Vec<Tuple> = run
            .full
            .into_iter()
            .flat_map(|b| b.rows)
            .chain(run.last.rows)
            .collect();
        assert_eq!(got, rows);
    }
}

fn sum(mut acc: WorkCounts, w: &WorkCounts) -> WorkCounts {
    acc.absorb(w);
    acc
}

#[test]
fn scan_agg_reads_shareably_and_returns_one_batch_of_partials() {
    let img = table(Layout::Pax, 3_000);
    let mut site = RecordingSite::new();
    let tref = site.load(&img, 0);
    site.cut = 1; // aggregates are never cut, whatever the buffer size
    let spec = ScanAggSpec {
        pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1_000)),
        aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
    };
    let mut states: Vec<AggState> = spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
    let mut receipts = Vec::new();
    for p in img.pages() {
        let mut w = WorkCounts::default();
        scan_agg_page_rowwise(p, img.schema(), &spec, &mut states, &mut w);
        receipts.push(w);
    }
    let op = QueryOp::ScanAgg { table: tref, spec };
    let run = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap();
    let want = table_scan_calls(0, NOW, true, &receipts);
    assert_eq!(site.calls, want);
    assert!(run.full.is_empty());
    assert!(run.last.rows.is_empty());
    assert_eq!(run.last.aggs, Some(states));
    assert_eq!(run.last.bytes, 32);
    assert_eq!(run.last.ready_at, *charge_dones(&want).last().unwrap());
}

fn group_spec() -> GroupAggSpec {
    GroupAggSpec {
        pred: Pred::Const(true),
        group_by: vec![0],
        aggs: vec![AggSpec::count()],
    }
}

/// `(g, v)` rows with `g = i / 60`: every page brings new groups, so the
/// group table grows page after page.
fn grouped_table() -> TableImage {
    let s = Schema::from_pairs(&[("g", DataType::Int32), ("v", DataType::Int64)]);
    let mut b = TableBuilder::new("t", s, Layout::Nsm);
    b.extend((0..3_000).map(|i| vec![Datum::I32(i / 60), Datum::I64(i as i64)] as Tuple));
    b.finish()
}

/// Resident bytes of the group table after each page, from the kernel the
/// driver calls (the reference table has no memory model).
fn group_residency(img: &TableImage, spec: &GroupAggSpec) -> Vec<u64> {
    let mut acc = GroupTable::new();
    img.pages()
        .iter()
        .map(|p| {
            let mut w = WorkCounts::default();
            smartssd_exec::scan_group_agg_page(p, img.schema(), spec, &mut acc, &mut w);
            group_table_memory_bytes(&acc, spec.aggs.len())
        })
        .collect()
}

#[test]
fn group_agg_checks_the_grant_after_every_page_and_charges_each_page_at_its_arrival() {
    let img = grouped_table();
    let spec = group_spec();
    let mut site = RecordingSite::new();
    let tref = site.load(&img, 40);
    let resident = group_residency(&img, &spec);
    assert!(resident.len() >= 4 && resident.windows(2).all(|w| w[0] < w[1]));
    let mut acc = RefGroupTable::new();
    // Never shareable: which pages it reads depends on the grant.
    let mut want = Vec::new();
    let mut receipts = Vec::new();
    for (i, p) in img.pages().iter().enumerate() {
        let mut w = WorkCounts::default();
        scan_group_agg_page_rowwise(p, img.schema(), &spec, &mut acc, &mut w);
        receipts.push(w);
        // Each page is read and consumed, and the grant checked on what it
        // grew the table to, before the next page is read.
        want.push(Call::ReadPage {
            lba: 40 + i as u64,
            at: NOW,
            shareable: false,
        });
        want.push(Call::Grant {
            resident: resident[i],
        });
    }
    // Every read is issued at `NOW`; the serial channel spaces arrivals.
    let mut cpu_free = 0;
    for (i, w) in receipts.iter().enumerate() {
        want.push(charge(&mut cpu_free, NOW + READ_TICKS * (i as u64 + 1), w));
    }
    let op = QueryOp::GroupAgg {
        table: tref,
        spec: spec.clone(),
    };
    let run = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap();
    assert_eq!(site.calls, want);
    assert!(run.full.is_empty());
    assert_eq!(run.last.rows.len(), acc.len());
    // One 4-byte key and one 8-byte aggregate a group.
    assert_eq!(run.last.bytes, acc.len() as u64 * 12);
    assert_eq!(run.last.ready_at, cpu_free);
}

#[test]
fn group_agg_reads_nothing_after_a_refused_grant() {
    let img = grouped_table();
    let spec = group_spec();
    let resident = group_residency(&img, &spec);
    let mut site = RecordingSite::new();
    let tref = site.load(&img, 0);
    // The table fits through page 1 and outgrows the grant on page 2.
    site.grant = resident[1];
    let op = QueryOp::GroupAgg { table: tref, spec };
    let err = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap_err();
    assert_eq!(
        err,
        Refused::Grant {
            resident: resident[2]
        }
    );
    let reads: Vec<u64> = site
        .calls
        .iter()
        .filter_map(|c| match c {
            Call::ReadPage { lba, .. } => Some(*lba),
            _ => None,
        })
        .collect();
    assert_eq!(reads, [0, 1, 2], "pages past the refusal stay unread");
    // The refusal ends the stream; the three pages read, the refusing one
    // included, are then charged at their arrivals.
    let refusal = site
        .calls
        .iter()
        .position(|c| {
            c == &Call::Grant {
                resident: resident[2],
            }
        })
        .expect("the refused grant check");
    let arrivals: Vec<u64> = site.calls[refusal + 1..]
        .iter()
        .map(|c| match c {
            Call::Charge { at, .. } => *at,
            other => panic!("only charges follow the refusal, got {other:?}"),
        })
        .collect();
    assert_eq!(arrivals, [1, 2, 3].map(|i| NOW + READ_TICKS * i));
}

const BUILD_LBA: u64 = 0;
const PROBE_LBA: u64 = 500;

/// Probe `(k, v)` against build `(k, v)` on `k`, keeping probe rows with
/// `v < 4000` (`k < 2000`).
fn join_op(site: &mut RecordingSite, output: JoinOutput) -> (QueryOp, TableImage, TableImage) {
    let build = table(Layout::Nsm, 1_500);
    let probe = table(Layout::Pax, 3_000);
    let build_ref = site.load(&build, BUILD_LBA);
    let probe_ref = site.load(&probe, PROBE_LBA);
    let spec = JoinSpec {
        build: BuildSide {
            table: build_ref,
            key_col: 0,
            payload: vec![1],
        },
        probe_key: 0,
        probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(4_000)),
        filter_first: true,
        output,
    };
    let op = QueryOp::Join {
        probe: probe_ref,
        spec,
    };
    (op, build, probe)
}

#[test]
fn join_charges_the_build_then_checks_the_grant_then_reads_the_probe_side() {
    let mut site = RecordingSite::new();
    // 12-byte output rows; cut at 3,000 bytes = 250 rows.
    site.cut = 3_000;
    let output = JoinOutput::Project(vec![ColRef::Probe(0), ColRef::Build(0)]);
    let (op, build, probe) = join_op(&mut site, output);
    let QueryOp::Join { spec, .. } = &op else {
        unreachable!()
    };
    // The reference kernels' receipts: the driver must charge exactly these.
    let mut build_w = WorkCounts::default();
    let ht = JoinHashTable::build(build.pages(), &spec.build, &mut build_w);
    let joined = spec.joined_schema(probe.schema());
    let mut sink = JoinSink::new(spec);
    let mut receipts = Vec::new();
    for p in probe.pages() {
        let mut w = WorkCounts::default();
        probe_page_rowwise(p, probe.schema(), spec, &ht, &joined, &mut sink, &mut w);
        receipts.push(w);
    }
    assert_eq!(sink.rows.len(), 1_500);

    let run = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap();

    // Build: one stream of the whole table, one charge once its last page
    // has arrived, then the grant check on the hash table.
    let build_pages = build.num_pages() as u64;
    let build_ready = NOW + READ_TICKS * build_pages;
    let mut cpu_free = 0;
    let build_charge = charge(&mut cpu_free, build_ready, &build_w);
    let build_done = cpu_free;
    let mut want = reads(BUILD_LBA, build_pages, NOW, false);
    want.push(build_charge);
    want.push(Call::Grant {
        resident: ht.memory_bytes(),
    });
    // Probe: streamed only now, issued at the build's completion.
    want.extend(reads(PROBE_LBA, receipts.len() as u64, build_done, false));
    let mut probe_dones = Vec::new();
    for (i, w) in receipts.iter().enumerate() {
        let arrival = build_done + READ_TICKS * (i as u64 + 1);
        want.push(charge(&mut cpu_free, arrival, w));
        probe_dones.push(cpu_free);
    }
    assert_eq!(site.calls, want);

    // Each batch is cut after the probe page that fills the buffer and is
    // stamped with that page's completion.
    let (mut pending, mut cuts) = (0, Vec::new());
    for (i, w) in receipts.iter().enumerate() {
        pending += w.out_tuples;
        if pending * 12 >= site.cut {
            cuts.push((pending, probe_dones[i]));
            pending = 0;
        }
    }
    let got: Vec<(u64, u64)> = run
        .full
        .iter()
        .map(|b| (b.rows.len() as u64, b.ready_at))
        .collect();
    assert_eq!(got, cuts);
    assert!(!run.full.is_empty(), "1,500 rows of 12 bytes cross the cut");
    for batch in &run.full {
        assert!(batch.bytes >= site.cut);
        assert_eq!(batch.bytes, batch.rows.len() as u64 * 12);
    }
    assert!(run.last.bytes < site.cut);
    assert_eq!(run.last.ready_at, cpu_free);
    let got: Vec<Tuple> = run
        .full
        .into_iter()
        .flat_map(|b| b.rows)
        .chain(run.last.rows)
        .collect();
    assert_eq!(got, sink.rows);
}

#[test]
fn join_does_not_read_the_probe_side_after_a_refused_build_grant() {
    let mut site = RecordingSite::new();
    site.grant = 1_000;
    let output = JoinOutput::Aggregate(vec![AggSpec::count()]);
    let (op, ..) = join_op(&mut site, output);
    let err = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap_err();
    assert!(matches!(err, Refused::Grant { resident } if resident > 1_000));
    // The build stream, its one charge, the refused grant check, and no
    // read of the probe side.
    let build_pages = site.calls.len() - 2;
    assert!(build_pages >= 2, "{:?}", site.calls);
    assert_eq!(
        site.calls[..build_pages],
        reads(BUILD_LBA, build_pages as u64, NOW, false)
    );
    assert!(matches!(site.calls[build_pages], Call::Charge { .. }));
    assert!(matches!(site.calls[build_pages + 1], Call::Grant { .. }));
}

#[test]
fn aggregating_join_returns_one_batch_of_partials() {
    let mut site = RecordingSite::new();
    site.cut = 1;
    let output = JoinOutput::Aggregate(vec![AggSpec::count(), AggSpec::sum(Expr::col(2))]);
    let (op, ..) = join_op(&mut site, output);
    let run = run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap();
    assert!(run.full.is_empty() && run.last.rows.is_empty());
    let aggs = run.last.aggs.expect("partials");
    assert_eq!(aggs[0].finish(), 1_500);
    assert_eq!(
        aggs[1].finish(),
        (0..1_500i128).map(|k| k * 2).sum::<i128>()
    );
    assert_eq!(run.last.bytes, 32);
}

#[test]
fn a_failed_read_surfaces_as_the_sites_error() {
    let img = table(Layout::Pax, 2_000);
    let mut site = RecordingSite::new();
    let mut tref = site.load(&img, 0);
    tref.num_pages += 1; // one page past what the site holds
    let unmapped = tref.num_pages - 1;
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    assert_eq!(
        run_op(&mut site, &op, NOW, &mut OpScratch::default()).unwrap_err(),
        Refused::Unmapped(unmapped)
    );
    assert!(
        site.charges().is_empty(),
        "nothing charged before the reads"
    );
}
