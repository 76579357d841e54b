//! Integration tests of the session protocol and failure handling across
//! the device/host boundary.

use proptest::prelude::*;
use smartssd::{DeviceKind, Layout, Route, RunOptions, SystemConfig};
use smartssd_device::{DeviceConfig, DeviceError, GetResponse, SessionId, SmartSsd};
use smartssd_exec::spec::{BuildSide, ColRef, GroupAggSpec, JoinSpec, ScanAggSpec, ScanSpec};
use smartssd_exec::{encode_op, JoinOutput, QueryOp, TableRef};
use smartssd_flash::FlashConfig;
use smartssd_query::{Finalize, OpTemplate, PlannerConfig, PlannerInputs, Query};
use smartssd_sim::SimTime;
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, TableBuilder, Tuple};
use std::sync::Arc;

fn small_schema() -> Arc<Schema> {
    Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
}

fn rows(n: i32) -> impl Iterator<Item = Tuple> {
    (0..n).map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
}

fn loaded_device() -> (SmartSsd, smartssd_exec::TableRef) {
    let mut dev = SmartSsd::new(FlashConfig::default(), DeviceConfig::default());
    let mut b = smartssd_storage::TableBuilder::new("t", small_schema(), Layout::Pax);
    b.extend(rows(50_000));
    let img = b.finish();
    let tref = dev.load_table(&img, 0).unwrap();
    dev.reset_timing();
    (dev, tref)
}

#[test]
fn open_get_close_full_lifecycle() {
    let (mut dev, tref) = loaded_device();
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    let sid = dev.open(&op, SimTime::ZERO).unwrap();
    // Immediately polling reports Running with a readiness hint.
    let ready = match dev.get(sid, SimTime::ZERO).unwrap() {
        GetResponse::Running { ready_at } => ready_at,
        other => panic!("expected Running, got {other:?}"),
    };
    // Polling at readiness yields the batch.
    match dev.get(sid, ready).unwrap() {
        GetResponse::Batch(b) => {
            assert_eq!(b.aggs.unwrap()[0].finish(), 50_000);
        }
        other => panic!("expected Batch, got {other:?}"),
    }
    // Then Done, repeatedly (idempotent).
    assert!(matches!(dev.get(sid, ready).unwrap(), GetResponse::Done));
    assert!(matches!(dev.get(sid, ready).unwrap(), GetResponse::Done));
    // CLOSE clears the state; the id is no longer valid.
    dev.close(sid).unwrap();
    assert_eq!(
        dev.get(sid, ready).unwrap_err(),
        DeviceError::UnknownSession(sid.0)
    );
}

#[test]
fn results_survive_interleaved_sessions() {
    let (mut dev, tref) = loaded_device();
    let count_op = QueryOp::ScanAgg {
        table: tref.clone(),
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    let sum_op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(10)),
            aggs: vec![AggSpec::sum(Expr::col(1))],
        },
    };
    let s1 = dev.open(&count_op, SimTime::ZERO).unwrap();
    let s2 = dev.open(&sum_op, SimTime::ZERO).unwrap();
    // Drain s2 first even though s1 opened first.
    let t = SimTime::from_secs(100);
    let b2 = match dev.get(s2, t).unwrap() {
        GetResponse::Batch(b) => b,
        other => panic!("{other:?}"),
    };
    assert_eq!(b2.aggs.unwrap()[0].finish(), 45); // 0+..+9
    let b1 = match dev.get(s1, t).unwrap() {
        GetResponse::Batch(b) => b,
        other => panic!("{other:?}"),
    };
    assert_eq!(b1.aggs.unwrap()[0].finish(), 50_000);
    dev.close(s1).unwrap();
    dev.close(s2).unwrap();
}

#[test]
fn memory_grant_rejection_falls_back_to_host_in_system() {
    // A join whose build side exceeds a tiny memory grant: System must
    // transparently rerun on the host and still produce correct rows.
    let mut cfg = SystemConfig::new(DeviceKind::SmartSsd, Layout::Nsm);
    cfg.smart.session_memory_bytes = 2048;
    let mut sys = smartssd::SystemBuilder::from_config(cfg).build();
    sys.load_table_rows("build", &small_schema(), rows(20_000))
        .unwrap();
    sys.load_table_rows("probe", &small_schema(), rows(5_000))
        .unwrap();
    sys.finish_load();
    let query = Query {
        name: "fallback join".into(),
        op: OpTemplate::Join {
            probe: "probe".into(),
            build: "build".into(),
            build_key: 0,
            build_payload: vec![1],
            probe_key: 0,
            probe_pred: Pred::Const(true),
            filter_first: true,
            output: smartssd_exec::JoinOutput::Project(vec![
                smartssd_exec::ColRef::Probe(0),
                smartssd_exec::ColRef::Build(0),
            ]),
        },
        finalize: Finalize::Rows,
    };
    let report = sys.run(&query, RunOptions::default()).unwrap();
    // It ran — on the host.
    assert_eq!(report.route, Route::Host);
    assert_eq!(report.result.rows.len(), 5_000);
}

#[test]
fn validation_failures_surface_as_plan_or_device_errors() {
    let mut sys = smartssd::SystemBuilder::new(DeviceKind::SmartSsd, Layout::Nsm).build();
    sys.load_table_rows("t", &small_schema(), rows(100))
        .unwrap();
    sys.finish_load();
    // Unknown table.
    let q_missing = Query {
        name: "missing".into(),
        op: OpTemplate::Scan {
            table: "nope".into(),
            spec: ScanSpec {
                pred: Pred::Const(true),
                project: vec![0],
            },
        },
        finalize: Finalize::Rows,
    };
    assert!(sys.run(&q_missing, RunOptions::default()).is_err());
    // Bad column index.
    let q_bad_col = Query {
        name: "bad col".into(),
        op: OpTemplate::Scan {
            table: "t".into(),
            spec: ScanSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(99), Expr::lit(0)),
                project: vec![0],
            },
        },
        finalize: Finalize::Rows,
    };
    assert!(sys.run(&q_bad_col, RunOptions::default()).is_err());
}

#[test]
fn planner_routes_by_residency_end_to_end() {
    let mut sys = smartssd::SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    sys.load_table_rows("t", &small_schema(), rows(200_000))
        .unwrap();
    sys.finish_load();
    let query = Query {
        name: "agg".into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(50)),
                aggs: vec![AggSpec::sum(Expr::col(1))],
            },
        },
        finalize: Finalize::AggRow,
    };
    let planner = PlannerConfig::default();
    let inputs = PlannerInputs {
        selectivity: 0.0005,
        tuples_per_page: 580.0,
        ..PlannerInputs::default()
    };
    // Cold: pushdown.
    let cold = sys
        .run(&query, RunOptions::planned(planner.clone(), inputs.clone()))
        .unwrap();
    assert_eq!(cold.route, Route::Device);
    // Fully cached: the planner must refuse to push down.
    sys.warm_cache("t", 1.0).unwrap();
    let warm = sys
        .run(&query, RunOptions::planned(planner, inputs))
        .unwrap();
    assert_eq!(warm.route, Route::Host);
    assert_eq!(cold.result.agg_values, warm.result.agg_values);
}

#[test]
fn ecc_failures_do_not_corrupt_device_results() {
    // Heavy injected error rates: retries everywhere, same answer.
    let flash = FlashConfig {
        ecc_retry_rate: u32::MAX / 4,
        ecc_fail_rate: u32::MAX / 64,
        ..FlashConfig::default()
    };
    let mut dev = SmartSsd::new(flash, DeviceConfig::default());
    let mut b = smartssd_storage::TableBuilder::new("t", small_schema(), Layout::Nsm);
    b.extend(rows(30_000));
    let img = b.finish();
    let tref = dev.load_table(&img, 0).unwrap();
    dev.reset_timing();
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
        },
    };
    let sid = dev.open(&op, SimTime::ZERO).unwrap();
    let batch = loop {
        match dev.get(sid, SimTime::from_secs(1000)).unwrap() {
            GetResponse::Batch(b) => break b,
            GetResponse::Running { .. } => continue,
            GetResponse::Done => panic!("no batch"),
        }
    };
    let aggs = batch.aggs.unwrap();
    assert_eq!(aggs[1].finish(), 30_000);
    assert_eq!(aggs[0].finish(), (0..30_000i128).sum::<i128>());
    assert!(dev.flash.stats().ecc_retries > 0, "retries were injected");
}

#[test]
fn silent_corruption_is_caught_and_retried_on_both_routes() {
    // ECC escapes: the device hands back flipped bytes with no error. The
    // page checksum catches it on whichever side consumes the page, a
    // re-read recovers, and query answers never change.
    let flash = FlashConfig {
        silent_corruption_rate: u32::MAX / 16, // ~6% of reads corrupted
        ..FlashConfig::default()
    };
    let mut cfg = SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax);
    cfg.flash = flash;
    let mut sys = smartssd::SystemBuilder::from_config(cfg).build();
    sys.load_table_rows("t", &small_schema(), rows(40_000))
        .unwrap();
    sys.finish_load();
    let query = Query {
        name: "sum under corruption".into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        },
        finalize: Finalize::AggRow,
    };
    let expected_sum: i128 = (0..40_000i128).sum();
    for route in [Route::Device, Route::Host] {
        sys.clear_cache();
        let r = sys.run(&query, RunOptions::routed(route)).unwrap();
        assert_eq!(r.result.agg_values[0], expected_sum, "route {route:?}");
        assert_eq!(r.result.agg_values[1], 40_000);
    }
}

#[test]
fn open_rejects_when_all_session_slots_taken() {
    // The paper's device grants one thread per session; an OPEN beyond the
    // thread pool must fail crisply and a CLOSE must free the slot.
    let mut dev = SmartSsd::new(
        FlashConfig::default(),
        DeviceConfig {
            max_sessions: 2,
            ..DeviceConfig::default()
        },
    );
    let mut b = smartssd_storage::TableBuilder::new("t", small_schema(), Layout::Pax);
    b.extend(rows(1_000));
    let tref = dev.load_table(&b.finish(), 0).unwrap();
    dev.reset_timing();
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    let s1 = dev.open(&op, SimTime::ZERO).unwrap();
    let s2 = dev.open(&op, SimTime::ZERO).unwrap();
    assert_eq!(
        dev.open(&op, SimTime::ZERO).unwrap_err(),
        DeviceError::TooManySessions
    );
    dev.close(s1).unwrap();
    // A freed slot is immediately reusable.
    let s3 = dev.open(&op, SimTime::ZERO).unwrap();
    dev.close(s2).unwrap();
    dev.close(s3).unwrap();
}

#[test]
fn get_and_close_on_unknown_or_closed_sessions() {
    let (mut dev, tref) = loaded_device();
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    // A session id the device never issued.
    let bogus = smartssd_device::SessionId(7_777);
    assert_eq!(
        dev.get(bogus, SimTime::ZERO).unwrap_err(),
        DeviceError::UnknownSession(7_777)
    );
    assert_eq!(
        dev.close(bogus).unwrap_err(),
        DeviceError::UnknownSession(7_777)
    );
    // Double CLOSE: the second one targets a dead id.
    let sid = dev.open(&op, SimTime::ZERO).unwrap();
    dev.close(sid).unwrap();
    assert_eq!(
        dev.close(sid).unwrap_err(),
        DeviceError::UnknownSession(sid.0)
    );
    // GET on the closed session is equally dead — the host must not be
    // able to confuse it with an idempotent post-Done poll.
    assert_eq!(
        dev.get(sid, SimTime::ZERO).unwrap_err(),
        DeviceError::UnknownSession(sid.0)
    );
}

#[test]
fn get_after_done_stays_done_until_close() {
    let (mut dev, tref) = loaded_device();
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    let sid = dev.open(&op, SimTime::ZERO).unwrap();
    let t = SimTime::from_secs(100);
    assert!(matches!(dev.get(sid, t).unwrap(), GetResponse::Batch(_)));
    // Done is idempotent for as long as the session stays open.
    for _ in 0..3 {
        assert!(matches!(dev.get(sid, t).unwrap(), GetResponse::Done));
    }
    dev.close(sid).unwrap();
    assert_eq!(
        dev.get(sid, t).unwrap_err(),
        DeviceError::UnknownSession(sid.0)
    );
}

#[test]
fn retry_exhaustion_surfaces_as_typed_error_not_panic() {
    // With a zero retry budget every injected uncorrectable error becomes
    // `RetriesExhausted` carrying the failure's LBA, budget, and completion
    // time — the host-visible contract the fallback path is built on.
    let mut dev = SmartSsd::new(
        FlashConfig {
            ecc_fail_rate: u32::MAX,
            ..FlashConfig::default()
        },
        DeviceConfig {
            read_retry_limit: 0,
            ..DeviceConfig::default()
        },
    );
    let mut b = smartssd_storage::TableBuilder::new("t", small_schema(), Layout::Pax);
    b.extend(rows(1_000));
    let tref = dev.load_table(&b.finish(), 0).unwrap();
    dev.reset_timing();
    let op = QueryOp::ScanAgg {
        table: tref,
        spec: ScanAggSpec {
            pred: Pred::Const(true),
            aggs: vec![AggSpec::count()],
        },
    };
    // The device schedules the scan eagerly, so the exhausted retry budget
    // surfaces at OPEN already — typed, not a panic.
    let err = dev.open(&op, SimTime::ZERO).unwrap_err();
    match err {
        DeviceError::RetriesExhausted {
            attempts,
            at,
            cause,
            ..
        } => {
            assert_eq!(attempts, 0);
            assert!(at > SimTime::ZERO, "failure time must be charged");
            assert!(matches!(
                *cause,
                DeviceError::Flash(smartssd_flash::FlashError::Uncorrectable { .. })
            ));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // The failed OPEN left no session behind; all slots stay available.
    assert!(dev.session_work(smartssd_device::SessionId(0)).is_none());
}

/// Polls a session to `Done`, jumping to each readiness hint, and closes it.
fn drain_and_close(dev: &mut SmartSsd, sid: SessionId) {
    let mut t = SimTime::ZERO;
    loop {
        match dev.get(sid, t).expect("a live session answers GET") {
            GetResponse::Running { ready_at } => t = ready_at,
            GetResponse::Batch(b) => t = t.max(b.ready_at),
            GetResponse::Done => break,
        }
    }
    dev.close(sid).expect("close");
}

/// A device holding the same 2,000 rows `(k int32, v int64, s char(10))`
/// as an NSM table and a PAX table, and the table refs its loads returned.
fn two_layout_device() -> (SmartSsd, TableRef, TableRef) {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("v", DataType::Int64),
        ("s", DataType::Char(10)),
    ]);
    let rows = || {
        (0..2_000).map(|k| {
            let s = format!("s{:04}", k % 50);
            vec![Datum::I32(k), Datum::I64(i64::from(k) * 7), Datum::str(&s)]
        })
    };
    let mut dev = SmartSsd::new(FlashConfig::default(), DeviceConfig::default());
    let [nsm, pax] = [Layout::Nsm, Layout::Pax].map(|layout| {
        let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
        b.extend(rows());
        b.finish()
    });
    let nsm = dev.load_table(&nsm, 0).unwrap();
    let pax = dev.load_table(&pax, nsm.num_pages).unwrap();
    dev.reset_timing();
    (dev, nsm, pax)
}

/// One operator of every kind over [`two_layout_device`]'s tables, each
/// touching predicates, projections, aggregates, group keys and join keys.
fn every_kind_of_op(nsm: &TableRef, pax: &TableRef) -> Vec<QueryOp> {
    let join = |output| QueryOp::Join {
        probe: nsm.clone(),
        spec: JoinSpec {
            build: BuildSide {
                table: pax.clone(),
                key_col: 0,
                payload: vec![1, 2],
            },
            probe_key: 0,
            probe_pred: Pred::Cmp(CmpOp::Lt, Expr::col(1), Expr::lit(1_000)),
            filter_first: true,
            output,
        },
    };
    vec![
        QueryOp::Scan {
            table: nsm.clone(),
            spec: ScanSpec {
                pred: Pred::And(vec![
                    Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(500)),
                    Pred::LikePrefix {
                        col: 2,
                        prefix: b"s00".as_slice().into(),
                    },
                ]),
                project: vec![2, 0, 1],
            },
        },
        QueryOp::ScanAgg {
            table: pax.clone(),
            spec: ScanAggSpec {
                pred: Pred::Or(vec![
                    Pred::Cmp(CmpOp::Ge, Expr::col(1), Expr::lit(10)),
                    Pred::StrCmp {
                        col: 2,
                        op: CmpOp::Eq,
                        lit: b"s0001".as_slice().into(),
                    },
                ]),
                aggs: vec![
                    AggSpec::sum(Expr::col(1).mul(Expr::lit(100).sub(Expr::col(0)))),
                    AggSpec::count(),
                    AggSpec::min(Expr::col(0)),
                    AggSpec::max(Expr::col(1)),
                ],
            },
        },
        QueryOp::GroupAgg {
            table: pax.clone(),
            spec: GroupAggSpec {
                pred: Pred::Const(true),
                group_by: vec![2, 0],
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        },
        join(JoinOutput::Project(vec![
            ColRef::Probe(1),
            ColRef::Build(0),
            ColRef::Build(1),
        ])),
        join(JoinOutput::Aggregate(vec![AggSpec::sum(Expr::col(3))])),
    ]
}

/// `op` with its (input) table swapped for `table`.
fn naming(op: &QueryOp, table: TableRef) -> QueryOp {
    let mut op = op.clone();
    match &mut op {
        QueryOp::Scan { table: t, .. }
        | QueryOp::ScanAgg { table: t, .. }
        | QueryOp::GroupAgg { table: t, .. }
        | QueryOp::Join { probe: t, .. } => *t = table,
    }
    op
}

/// An `OPEN` that decodes and validates but names an extent the device
/// never loaded — past the end of the LBA space, a page count no buffer
/// could hold, the right pages under the wrong schema — is a typed error
/// before any read or allocation, on either layout and either entry point,
/// and opens nothing.
#[test]
fn an_open_naming_an_unloaded_extent_is_a_typed_error() {
    let (mut dev, nsm, pax) = two_layout_device();
    let ops = every_kind_of_op(&nsm, &pax);
    let schema = |cols: &[(&str, DataType)]| Schema::from_pairs(cols);
    for (scan, real) in [(&ops[0], &nsm), (&naming(&ops[0], pax.clone()), &pax)] {
        let wide = schema(&[("w", DataType::Char(4000)), ("v", DataType::Int64)]);
        let tail = schema(&[("v", DataType::Int64), ("c", DataType::Char(200))]);
        let bad = [
            TableRef {
                first_lba: u64::MAX - 1,
                num_pages: 5,
                ..real.clone()
            },
            TableRef {
                num_pages: 1 << 62,
                ..real.clone()
            },
            TableRef {
                schema: wide,
                ..real.clone()
            },
            TableRef {
                schema: tail,
                ..real.clone()
            },
        ];
        for table in bad {
            let (lba, pages) = (table.first_lba, table.num_pages);
            let mut op = naming(scan, table);
            if let QueryOp::Scan { spec, .. } = &mut op {
                spec.pred = Pred::Const(true);
                spec.project = vec![1];
            }
            let want = DeviceError::UnknownExtent { lba, pages };
            let at = format!("{:?} {lba} {pages}", real.layout);
            assert_eq!(dev.open(&op, SimTime::ZERO).unwrap_err(), want, "{at}");
            let raw = dev.open_raw(&encode_op(&op), SimTime::ZERO);
            assert_eq!(raw.unwrap_err(), want, "{at}");
            assert_eq!(dev.open_sessions(), 0, "{at}");
        }
    }
    // The extents as loaded still open, through either entry point.
    for op in &ops {
        let sid = dev.open_raw(&encode_op(op), SimTime::ZERO).unwrap();
        drain_and_close(&mut dev, sid);
    }
}

/// Whether the device answered `payload` with a session that runs to
/// completion, or with a typed error that left no session open.
fn opens_or_rejects_cleanly(dev: &mut SmartSsd, payload: &[u8]) -> bool {
    match dev.open_raw(payload, SimTime::ZERO) {
        Ok(sid) => {
            drain_and_close(dev, sid);
            true
        }
        Err(_) => dev.open_sessions() == 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The device survives malformed host commands: in an encoded operator
    /// of every kind, a single-byte flip at any offset, and a `u64`
    /// overwrite at any offset — with a drawn word and with the small
    /// values that land on column indices and counts — each opens a
    /// session that runs to completion or is a typed error that leaves no
    /// session open. Never a panic.
    #[test]
    fn a_corrupted_open_payload_is_a_session_or_a_typed_error(
        mask in 1u8..=255,
        word in any::<u64>(),
    ) {
        let (mut dev, nsm, pax) = two_layout_device();
        for (k, op) in every_kind_of_op(&nsm, &pax).iter().enumerate() {
            let clean = encode_op(op);
            for i in 0..clean.len() {
                let mut flipped = clean.clone();
                flipped[i] ^= mask;
                prop_assert!(opens_or_rejects_cleanly(&mut dev, &flipped), "op {k}, byte {i}");
            }
            for i in 0..clean.len() - 7 {
                for w in [word, 0, 1, 2, u64::MAX] {
                    let mut overwritten = clean.clone();
                    overwritten[i..i + 8].copy_from_slice(&w.to_le_bytes());
                    let at = format!("op {k}, {w:#x} at byte {i}");
                    prop_assert!(opens_or_rejects_cleanly(&mut dev, &overwritten), "{at}");
                }
            }
        }
    }
}
