//! The streamed table read, on both routes.
//!
//! On clean flash the device peeks and validates each page, hands it to the
//! kernel, and posts the consumed run as one batched timeline charge; with a
//! tracer listening (or any fault injection) it reads page by page. The two
//! must be indistinguishable: every result batch, the work receipt, the
//! device CPU's busy time and the flash counters. A page stored corrupted
//! with injection off ends the batch where it lies and goes through the
//! retry policy, on the device and on the host read path alike.

use smartssd_device::{DeviceConfig, DeviceError, GetResponse, SessionId, SmartSsd};
use smartssd_exec::spec::{BuildSide, ColRef, GroupAggSpec, JoinSpec, ScanAggSpec, ScanSpec};
use smartssd_exec::{CostTable, JoinOutput, QueryOp, TableRef, WorkCounts};
use smartssd_flash::{FlashConfig, FlashSsd};
use smartssd_host::{BufferPool, CommandState, InterfaceKind, LinkedFlashView};
use smartssd_query::HostEngine;
use smartssd_sim::{
    mb_per_sec, Bus, CounterSink, CpuModel, FaultCounters, SimTime, TraceLevel, Tracer,
};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{
    DataType, Datum, Layout, PageBuf, PageDecodeCache, Schema, TableBuilder, TableImage, Tuple,
};

/// `(k, v)` rows, `k = i`, `v = 3i`: several pages on either layout.
fn table(layout: Layout, n: i32) -> TableImage {
    let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
    let mut b = TableBuilder::new("t", s, layout);
    b.extend((0..n).map(|i| vec![Datum::I32(i), Datum::I64(i as i64 * 3)] as Tuple));
    b.finish()
}

/// A device holding a 20,000-row probe table and a 3,000-row build table
/// of `layout`, timing reset; traced at full level when `traced`.
fn device(layout: Layout, traced: bool) -> (SmartSsd, TableRef, TableRef) {
    let cfg = DeviceConfig {
        result_buffer_bytes: 4_096,
        ..DeviceConfig::default()
    };
    let mut dev = SmartSsd::new(FlashConfig::default(), cfg);
    let probe = dev.load_table(&table(layout, 20_000), 0).unwrap();
    let build = dev.load_table(&table(layout, 3_000), 1_000).unwrap();
    dev.reset_timing();
    if traced {
        let tracer = Tracer::new(CounterSink::new());
        tracer.set_level(TraceLevel::Full);
        dev.set_tracer(tracer);
        assert!(
            !dev.flash.can_batch_reads(),
            "a listening tracer reads page by page"
        );
    } else {
        assert!(dev.flash.can_batch_reads());
    }
    (dev, probe, build)
}

/// Every operator kind the stream feeds, over the probe and build tables.
fn ops(probe: &TableRef, build: &TableRef) -> Vec<(&'static str, QueryOp)> {
    let join = |output| QueryOp::Join {
        probe: probe.clone(),
        spec: JoinSpec {
            build: BuildSide {
                table: build.clone(),
                key_col: 0,
                payload: vec![1],
            },
            probe_key: 0,
            probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(15_000)),
            filter_first: true,
            output,
        },
    };
    vec![
        (
            // 8-byte rows against a 4 KB buffer: many cut batches.
            "scan",
            QueryOp::Scan {
                table: probe.clone(),
                spec: ScanSpec {
                    pred: Pred::Cmp(CmpOp::Ge, Expr::col(0), Expr::lit(2_000)),
                    project: vec![1],
                },
            },
        ),
        (
            "scan_agg",
            QueryOp::ScanAgg {
                table: probe.clone(),
                spec: ScanAggSpec {
                    pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(9_000)),
                    aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
                },
            },
        ),
        (
            "group_agg",
            QueryOp::GroupAgg {
                table: probe.clone(),
                spec: GroupAggSpec {
                    pred: Pred::Const(true),
                    group_by: vec![0],
                    aggs: vec![AggSpec::count()],
                },
            },
        ),
        (
            "join_project",
            join(JoinOutput::Project(vec![
                ColRef::Probe(1),
                ColRef::Build(0),
            ])),
        ),
        (
            "join_aggregate",
            join(JoinOutput::Aggregate(vec![AggSpec::sum(Expr::col(1))])),
        ),
    ]
}

/// One batch as the host sees it: rows, partials, bytes, readiness.
type Seen = (Vec<Tuple>, Option<Vec<i128>>, u64, SimTime);

/// Opens `op` at `now`, drains every batch, and reports what the session
/// produced and what it cost the device.
fn run(dev: &mut SmartSsd, op: &QueryOp, now: SimTime) -> (Vec<Seen>, WorkCounts, u64, String) {
    let sid: SessionId = dev.open(op, now).unwrap();
    let work = *dev.session_work(sid).unwrap();
    let mut batches = Vec::new();
    while let GetResponse::Batch(b) = dev.get(sid, SimTime::from_nanos(u64::MAX)).unwrap() {
        let aggs = b.aggs.map(|a| a.iter().map(|s| s.finish()).collect());
        batches.push((b.rows, aggs, b.bytes, b.ready_at));
    }
    dev.close(sid).unwrap();
    let stats = format!("{:?}", dev.flash.stats());
    (batches, work, dev.cpu().busy_total_ns(), stats)
}

#[test]
fn batched_and_page_by_page_reads_produce_identical_sessions() {
    for layout in [Layout::Nsm, Layout::Pax] {
        let (mut batched, probe, build) = device(layout, false);
        let (mut paged, ..) = device(layout, true);
        // Later sessions start on timelines the earlier ones left busy.
        for (i, (name, op)) in ops(&probe, &build).into_iter().enumerate() {
            let now = SimTime::from_nanos(i as u64 * 1_000_000);
            let want = run(&mut paged, &op, now);
            let got = run(&mut batched, &op, now);
            assert!(!want.0.is_empty() && want.1.pages > 0, "{layout:?} {name}");
            if name == "scan" {
                assert!(want.0.len() > 10, "{layout:?}: the scan cuts batches");
            }
            assert_eq!(got, want, "{layout:?} {name}");
        }
    }
}

#[test]
fn a_refused_group_grant_stops_both_readers_at_the_same_page() {
    for layout in [Layout::Nsm, Layout::Pax] {
        let (mut batched, probe, build) = device(layout, false);
        let (mut paged, ..) = device(layout, true);
        let (_, op) = ops(&probe, &build).remove(2);
        for dev in [&mut batched, &mut paged] {
            dev.config_mut().session_memory_bytes = 64 * 1024;
        }
        let want = paged.open(&op, SimTime::ZERO).unwrap_err();
        assert!(matches!(want, DeviceError::MemoryGrantExceeded { .. }));
        assert_eq!(batched.open(&op, SimTime::ZERO).unwrap_err(), want);
        assert!(batched.flash.stats().reads < probe.num_pages, "{layout:?}");
        assert_eq!(
            format!("{:?}", batched.flash.stats()),
            format!("{:?}", paged.flash.stats())
        );
        assert_eq!(batched.cpu().busy_total_ns(), paged.cpu().busy_total_ns());
        assert_eq!(batched.total_work(), paged.total_work());
    }
}

/// A `count(*)` of the whole 20,000-row PAX table.
fn count_all(table: TableRef) -> QueryOp {
    QueryOp::ScanAgg {
        table,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    }
}

/// The error, fault counters, flash reads and CPU busy time of one read of
/// a table whose page `at` (an index into the table) was stored corrupted.
struct Outcome {
    error: String,
    faults: FaultCounters,
    flash_reads: u64,
    cpu_busy_ns: u64,
}

/// The table, and its page `at` flipped in one body byte: a checksum
/// mismatch on every read, with no fault injection configured.
fn corrupt_pages(at: usize) -> (TableImage, Vec<PageBuf>) {
    let img = table(Layout::Pax, 20_000);
    let mut pages = img.pages().to_vec();
    pages[at] = pages[at].corrupted(0, 1);
    (img, pages)
}

fn device_outcome(at: usize) -> Outcome {
    let (img, pages) = corrupt_pages(at);
    let mut dev = SmartSsd::new(FlashConfig::default(), DeviceConfig::default());
    let tref = dev.load_table(&img, 0).unwrap();
    dev.flash
        .write(at as u64, pages[at].raw().clone(), SimTime::ZERO)
        .unwrap();
    dev.reset_timing();
    let err = dev.open(&count_all(tref), SimTime::ZERO).unwrap_err();
    Outcome {
        error: err.to_string(),
        faults: dev.fault_counters(),
        flash_reads: dev.flash.stats().reads,
        cpu_busy_ns: dev.cpu().busy_total_ns(),
    }
}

fn host_outcome(at: usize) -> Outcome {
    let (img, pages) = corrupt_pages(at);
    let mut ssd = FlashSsd::new(FlashConfig::default());
    for (lba, page) in pages.iter().enumerate() {
        ssd.write(lba as u64, page.raw().clone(), SimTime::ZERO)
            .unwrap();
    }
    ssd.reset_timing();
    let interface = InterfaceKind::Sas6;
    let mut link = Bus::new("host-interface", mb_per_sec(interface.effective_mbps()), 0);
    let (mut pool, mut cmd) = (BufferPool::new(0), CommandState::default());
    let (mut faults, mut page_cache) = (FaultCounters::default(), PageDecodeCache::new());
    let mut view = LinkedFlashView {
        ssd: &mut ssd,
        link: &mut link,
        pool: &mut pool,
        cmd: &mut cmd,
        cmd_latency_ns: interface.command_latency_ns(),
        faults: &mut faults,
        page_cache: &mut page_cache,
    };
    let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
    let tref = TableRef {
        first_lba: 0,
        num_pages: img.num_pages() as u64,
        schema: img.schema().clone(),
        layout: img.layout(),
    };
    let err = HostEngine::new(&mut view, &mut cpu, CostTable::host())
        .run_raw(&count_all(tref), SimTime::ZERO, 1)
        .unwrap_err();
    Outcome {
        error: err.to_string(),
        faults,
        flash_reads: ssd.stats().reads,
        cpu_busy_ns: cpu.busy_total_ns(),
    }
}

/// Pinned from the collect-then-run reader this stream replaced: the page
/// index, then the device's and the host's error message and flash reads.
/// The batch up to the bad page is charged as page-by-page reads would be,
/// the bad page is read once and retried twice, and nothing after it is
/// read.
const CORRUPT_CASES: [(usize, &str, &str, u64); 3] = [
    (
        0,
        "read retries exhausted at LBA 0 after 2 retries (at 236.160us): page: checksum \
         mismatch: stored 0x3533e2948156a575, computed 0xd65fd5cf04e14971",
        "io: read retries exhausted at LBA 0 after 2 retries: page: checksum mismatch: \
         stored 0x3533e2948156a575, computed 0xd65fd5cf04e14971",
        3,
    ),
    (
        15,
        "read retries exhausted at LBA 15 after 2 retries (at 369.480us): page: checksum \
         mismatch: stored 0x3ae4bd36ded1c99c, computed 0x785c4f74910c59de",
        "io: read retries exhausted at LBA 15 after 2 retries: page: checksum mismatch: \
         stored 0x3ae4bd36ded1c99c, computed 0x785c4f74910c59de",
        18,
    ),
    (
        29,
        "read retries exhausted at LBA 29 after 2 retries (at 442.840us): page: checksum \
         mismatch: stored 0x3affc1d73a32e0c9, computed 0xf6c43383f9e844bc",
        "io: read retries exhausted at LBA 29 after 2 retries: page: checksum mismatch: \
         stored 0x3affc1d73a32e0c9, computed 0xf6c43383f9e844bc",
        32,
    ),
];

#[test]
fn a_page_stored_corrupted_fails_the_read_on_both_routes() {
    // The first, a middle and the last page of the 30-page table.
    assert_eq!(table(Layout::Pax, 20_000).num_pages(), 30);
    // Three checksum failures on the bad page, two of them retried.
    let faults = FaultCounters {
        escapes_detected: 3,
        read_retries: 2,
        ..FaultCounters::default()
    };
    for (at, device_error, host_error, flash_reads) in CORRUPT_CASES {
        for (o, error) in [
            (device_outcome(at), device_error),
            (host_outcome(at), host_error),
        ] {
            assert_eq!(o.error, error, "page {at}");
            assert_eq!(o.faults, faults, "page {at}: {error}");
            assert_eq!(o.flash_reads, flash_reads, "page {at}: {error}");
            // A failed read charges no receipt, not even the pages before it.
            assert_eq!(o.cpu_busy_ns, 0, "page {at}: {error}");
        }
    }
}
