//! Differential tests of an N-device Smart SSD array: a `System` built with
//! `SystemBuilder::devices(n)` and loaded with `load_partitioned`.
//!
//! The array's load-bearing property: scatter/gather over N shards is an
//! *answer-preserving* transformation. For any table contents, any shard
//! count, either interface mode, with or without hedging, and under
//! injected device crashes, the merged answer is bit-identical to a
//! single-device run of the same query. Faults and hedging may move
//! timing; they must never move answers. A table placed wrong for its
//! operator (`tests/array_ops.rs` covers every operator shape) is refused
//! before any `OPEN`.

use proptest::prelude::*;
use smartssd::{
    BreakerPolicy, BreakerState, DeviceKind, HedgePolicy, InterfaceMode, Layout, QueryResult,
    Route, RoutePolicy, RunErrorKind, RunOptions, RunReport, SimTime, System, SystemBuilder,
    Workload, WorkloadOptions,
};
use smartssd_exec::spec::{BuildSide, GroupAggSpec, JoinOutput, JoinSpec, ScanAggSpec};
use smartssd_exec::WorkCounts;
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_sim::FaultPlan;
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, TableBuilder, Tuple};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
}

prop_compose! {
    fn arb_row()(k in -1000i32..1000, v in -1_000_000i64..1_000_000) -> Tuple {
        vec![Datum::I32(k), Datum::I64(v)]
    }
}

/// COUNT/SUM/MIN/MAX under a selective predicate — exercises every merge
/// shape, including empty-shard partials.
fn agg_query(cutoff: i64) -> Query {
    Query {
        name: "fleet agg".into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(cutoff)),
                aggs: vec![
                    AggSpec::count(),
                    AggSpec::sum(Expr::col(1)),
                    AggSpec::min(Expr::col(1)),
                    AggSpec::max(Expr::col(1)),
                ],
            },
        },
        finalize: Finalize::AggRow,
    }
}

/// A ratio finalize over two partials — breaks if anything finalizes
/// per-shard instead of once over the merged states (the AVG trap).
fn ratio_query(cutoff: i64) -> Query {
    Query {
        name: "fleet ratio".into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(cutoff)),
                aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(1))],
            },
        },
        finalize: Finalize::RatioPct { num: 1, den: 0 },
    }
}

/// The single-device reference: the same query pushed down on one System.
fn single_device_reference(rows: &[Tuple], query: &Query) -> QueryResult {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    sys.load_table_rows("t", &schema(), rows.to_vec()).unwrap();
    sys.finish_load();
    sys.run(query, RunOptions::routed(Route::Device))
        .unwrap()
        .result
}

/// An `n`-device array over `rows`, hedging every live shard when `hedge`.
fn array(n: usize, hedge: bool, rows: &[Tuple]) -> System {
    let every_shard = HedgePolicy {
        factor: 0.0,
        ..HedgePolicy::default()
    };
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(n)
        .tweak(|c| c.hedge = hedge.then_some(every_shard))
        .build();
    sys.load_partitioned("t", &schema(), rows.to_vec()).unwrap();
    sys.finish_load();
    sys
}

/// `query` with the device route forced on every shard.
fn run_device(sys: &mut System, query: &Query) -> RunReport {
    sys.run(query, RunOptions::routed(Route::Device)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Merged answers == single-device answers for any shard count,
    /// interface mode (a one-item workload), hedging setting, and crash
    /// schedule — and no run, faulted or clean, leaves a session open
    /// anywhere.
    #[test]
    fn fleet_matches_single_device_for_any_shape(
        rows in prop::collection::vec(arb_row(), 1..400),
        n_dev in 1usize..=16,
        cutoff in -400i64..400,
        linked in any::<bool>(),
        hedge in any::<bool>(),
        // 0 = no crash; k > 0 = crash device (k - 1) % n_dev.
        crash_sel in 0usize..=16,
    ) {
        let crash = crash_sel.checked_sub(1);
        let interface = if linked { InterfaceMode::Linked } else { InterfaceMode::Direct };
        for query in [agg_query(cutoff), ratio_query(cutoff)] {
            let expect = single_device_reference(&rows, &query);
            // Hedging, when on, races every live shard.
            let mut sys = array(n_dev, hedge, &rows);
            if let Some(c) = crash {
                // One crashed device out of N degrades its shard to the
                // host path; answers must not move.
                sys.device_mut(c % n_dev).config_mut().fault_rates.crash_rate = u32::MAX;
            }
            let mut one = Workload::new();
            one.push(query.clone(), RoutePolicy::Force(Route::Device), SimTime::ZERO);
            let rep = sys.run_workload(&one, WorkloadOptions::new().interface(interface)).unwrap();
            let r = &rep.completions[0].result;
            prop_assert_eq!(&r.agg_values, &expect.agg_values, "aggs, {}", query.name);
            prop_assert_eq!(r.scalar, expect.scalar, "scalar, {}", query.name);
            if crash.is_some() {
                prop_assert!(rep.faults.fallbacks >= 1, "crashed shard must degrade");
                prop_assert!(rep.faults.device_crashes >= 1);
            }
            for d in 0..n_dev {
                prop_assert_eq!(sys.device(d).open_sessions(), 0, "device {} leaked", d);
            }
        }
    }

    /// A hedged shard races its device session against a host copy;
    /// whichever wins, the answers are identical to the non-hedging run —
    /// only timing may move.
    #[test]
    fn hedging_changes_only_timing(
        rows in prop::collection::vec(arb_row(), 100..400),
        n_dev in 2usize..=4,
        cutoff in -400i64..400,
    ) {
        let query = agg_query(cutoff);
        let mut plain = array(n_dev, false, &rows);
        let mut racing = array(n_dev, true, &rows);
        let a = run_device(&mut plain, &query);
        let b = run_device(&mut racing, &query);
        prop_assert_eq!(&a.result.agg_values, &b.result.agg_values);
        prop_assert_eq!(a.result.scalar, b.result.scalar);
        prop_assert!(b.faults.hedges >= 1, "factor 0.0 must force a hedge");
        for d in 0..n_dev {
            prop_assert_eq!(racing.device(d).open_sessions(), 0);
        }
    }
}

/// Two identical arrays produce byte-identical reports, timing included.
#[test]
fn fleet_runs_are_deterministic() {
    let rows: Vec<Tuple> = (0..50_000)
        .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
        .collect();
    let query = agg_query(400);
    let run = |hedge: bool| {
        let r = run_device(&mut array(8, hedge, &rows), &query);
        (
            r.result.agg_values.clone(),
            r.result.elapsed,
            r.shards
                .iter()
                .map(|s| (s.route, s.finished_at))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(false), run(false));
    assert_eq!(run(true), run(true));
}

/// The paper's coordinator (`repro array`): `OPEN`s and the gather are
/// serial over the shared link.
fn counting_array(n: usize, n_rows: i32) -> System {
    let rows: Vec<Tuple> = (0..n_rows)
        .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
        .collect();
    array(n, false, &rows)
}

#[test]
fn more_devices_scale_down_elapsed_time() {
    let times: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&n| {
            let mut sys = counting_array(n, 400_000);
            run_device(&mut sys, &agg_query(i64::MAX)).result.elapsed
        })
        .collect();
    assert!(
        times[1] < times[0] && times[2] < times[1],
        "expected monotone speedup: {times:?}"
    );
    // Near-linear scaling 1 -> 4 devices for this CPU-light scan.
    let speedup = times[0].as_secs_f64() / times[2].as_secs_f64();
    assert!(speedup > 2.5, "4-device speedup only {speedup:.2}x");
}

#[test]
#[should_panic(expected = "at least one device")]
fn zero_devices_rejected() {
    SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(0)
        .build();
}

/// A row that does not match the schema is a typed error naming its index
/// in the input, not a panic, and no device has been written.
#[test]
fn malformed_row_in_a_partitioned_load_is_named_and_writes_nothing() {
    let mut rows: Vec<Tuple> = (0..1_000)
        .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
        .collect();
    rows[517][0] = Datum::I64(1);
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(4)
        .build();
    let err = sys.load_partitioned("t", &schema(), rows).unwrap_err();
    let RunErrorKind::Row(e) = err.kind() else {
        panic!("not a row error: {err}")
    };
    assert_eq!(e.row, 517, "{err}");
    for d in 0..4 {
        assert_eq!(sys.device(d).flash.stats().writes, 0, "device {d}");
    }
}

/// Each device of an N-device load holds, from the table's first LBA on,
/// exactly the pages one `TableBuilder` builds from its round-robin share
/// of the rows, in either layout, whether or not the row iterator knows its
/// length up front.
#[test]
fn each_device_holds_the_pages_of_its_share_built_alone() {
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int32),
        ("s", DataType::Char(5)),
        ("v", DataType::Int64),
    ]);
    let text = ["", "a", "bc", "def", "ghij", "klmno"];
    let rows: Vec<Tuple> = (0..5_000)
        .map(|k| {
            vec![
                Datum::I32(k),
                Datum::static_str(text[k as usize % 6]),
                Datum::I64(-3 * k as i64),
            ]
        })
        .collect();
    for layout in [Layout::Nsm, Layout::Pax] {
        for n in [2, 3, 16] {
            let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, layout)
                .devices(n)
                .build();
            let stream = rows.iter().cloned();
            if n == 3 {
                // No exact size hint: the record runs grow as they go.
                sys.load_partitioned("t", &schema, stream.filter(|_| true))
            } else {
                sys.load_partitioned("t", &schema, stream)
            }
            .unwrap();
            let first = sys.catalog().get("t").unwrap().first_lba;
            for d in 0..n {
                let mut b = TableBuilder::new("t", Arc::clone(&schema), layout);
                b.extend(rows.iter().skip(d).step_by(n).cloned());
                let want = b.finish();
                let flash = &sys.device(d).flash;
                assert_eq!(
                    flash.stats().writes,
                    want.num_pages() as u64,
                    "{layout} n={n} d={d}"
                );
                for (i, page) in want.pages().iter().enumerate() {
                    let (got, _) = flash.peek_page(first + i as u64).unwrap();
                    assert!(
                        got == *page.raw(),
                        "{layout} n={n} device {d} page {i} differs"
                    );
                }
            }
        }
    }
}

/// Regression: a fault mid-gather must not leak the sessions still open on
/// not-yet-gathered devices.
#[test]
fn mid_gather_fault_leaves_zero_open_sessions() {
    let mut sys = counting_array(4, 40_000);
    // Break device 1's shard on *both* routes: trim a partition page from
    // its flash so the device-side scan fails at open (recoverable — the
    // shard degrades to the host path) and the host fallback then fails
    // hard on the same unmapped page. Devices 0, 2, and 3 still open
    // healthy sessions; the run error must not leak them.
    sys.device_mut(1).flash.trim(0).unwrap();
    let err = sys
        .run(&agg_query(i64::MAX), RunOptions::routed(Route::Device))
        .unwrap_err();
    assert!(
        err.fault_counters().fallbacks >= 1,
        "expected a fallback attempt"
    );
    for d in 0..4 {
        assert_eq!(
            sys.device(d).open_sessions(),
            0,
            "device {d} leaked a session"
        );
    }
}

/// The N = 1 oracle: a one-device array, loaded by `load_partitioned` and
/// armed by `arm_fault_plan` after the load, *is* the default system loaded
/// by `load_table_rows` with the plan given to the builder. The two agree
/// on every back-to-back cold run — elapsed time to the nanosecond,
/// answers, every fault counter, the breaker state and the shard's route —
/// clean, through a scripted mid-run crash, under a gray slowdown and with
/// a device that crashes at every `OPEN`, breaker off and on.
#[test]
fn one_device_fleet_equals_single_system() {
    let rows: Vec<Tuple> = (0..120_000)
        .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
        .collect();
    let query = agg_query(i64::MAX);
    let forever = SimTime::from_secs(3600);
    let scenarios = [
        ("clean", FaultPlan::new(), 0),
        (
            "crash_at",
            FaultPlan::new().crash_at(0, SimTime::from_millis(1)),
            0,
        ),
        (
            "slowdown",
            FaultPlan::new().slowdown(0, 8, SimTime::ZERO, forever),
            0,
        ),
        ("crash_rate", FaultPlan::new(), u32::MAX),
    ];
    // Wide enough a window that three faulted runs trip the breaker, short
    // enough a cooldown that a later run is the HalfOpen probe; service
    // times are sampled.
    let tripping = BreakerPolicy {
        window: SimTime::from_secs(1),
        cooldown: SimTime::from_millis(100),
        slow_trip_factor: 2,
        baseline_samples: 2,
        ..BreakerPolicy::enabled()
    };
    for (name, plan, crash_rate) in &scenarios {
        for breaker in [BreakerPolicy::default(), tripping] {
            let mut states = Vec::new();
            let builder = || {
                SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                    .breaker(breaker)
                    .tweak(|c| c.smart.fault_rates.crash_rate = *crash_rate)
            };
            let mut sys = builder().fault_plan(plan).build();
            sys.load_table_rows("t", &schema(), rows.clone()).unwrap();
            sys.finish_load();
            let mut array = builder().devices(1).build();
            array
                .load_partitioned("t", &schema(), rows.clone())
                .unwrap();
            array.finish_load();
            array.arm_fault_plan(plan);
            for run in 0..8 {
                let at = format!("{name}, breaker {}, run {run}", breaker.enabled);
                sys.clear_cache();
                array.clear_cache();
                let one = run_device(&mut sys, &query);
                let many = run_device(&mut array, &query);
                assert_eq!(many.result.elapsed, one.result.elapsed, "elapsed, {at}");
                assert_eq!(many.result.agg_values, one.result.agg_values, "{at}");
                assert_eq!(many.faults, one.faults, "fault counters, {at}");
                assert_eq!(array.breaker_state(0), sys.breaker_state(0), "{at}");
                assert_eq!(many.shards[0].route, one.route, "route, {at}");
                assert_eq!(format!("{:?}", many.shards), format!("{:?}", one.shards));
                states.push(sys.breaker_state(0));
            }
            // The scenarios do what they say: crashes degrade every attempt
            // and, counted, open the breaker; nothing else does.
            let crashing = name.starts_with("crash");
            let opened = states.contains(&BreakerState::Open);
            assert_eq!(opened, crashing && breaker.enabled, "{name}: {states:?}");
        }
    }
}

/// `GROUP BY g` with `COUNT(*)` and `SUM(v)` over table `g`.
fn group_query() -> Query {
    Query {
        name: "fleet group".into(),
        op: OpTemplate::GroupAgg {
            table: "g".into(),
            spec: GroupAggSpec {
                pred: Pred::Const(true),
                group_by: vec![0],
                aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(1))],
            },
        },
        finalize: Finalize::Rows,
    }
}

/// `COUNT(*)` and `SUM(r.pay)` over `s JOIN r ON s.k = r.id`.
fn join_query() -> Query {
    Query {
        name: "fleet join".into(),
        op: OpTemplate::Join {
            probe: "s".into(),
            spec: JoinSpec {
                build: BuildSide {
                    table: "r".into(),
                    key_col: 0,
                    payload: vec![1],
                },
                probe_key: 0,
                probe_pred: Pred::Const(true),
                filter_first: true,
                // Joined schema: s.k, s.v, then r.pay at index 2.
                output: JoinOutput::Aggregate(vec![AggSpec::count(), AggSpec::sum(Expr::col(2))]),
            },
        },
        finalize: Finalize::AggRow,
    }
}

/// An `n`-device array holding the group and join inputs: `g` is 8,000
/// rows `(i mod 3, i)` and probe `s` is 8,000 rows `((7i + 3) mod 200, i)`,
/// both partitioned, and build `r` is 200 rows `(id, pay = id)`, whole on
/// every device.
fn group_join_array(n: usize) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(n)
        .build();
    sys.load_partitioned("g", &schema(), (0..8_000).map(|i| pair(i % 3, i)))
        .unwrap();
    sys.load_table_rows("r", &schema(), r_rows()).unwrap();
    let s = (0..8_000).map(|i| pair((7 * i + 3) % 200, i));
    sys.load_partitioned("s", &schema(), s).unwrap();
    sys.finish_load();
    sys
}

fn pair(k: i64, v: i64) -> Tuple {
    vec![Datum::I32(k as i32), Datum::I64(v)]
}

fn r_rows() -> impl Iterator<Item = Tuple> {
    (0..200).map(|i| pair(i, i))
}

/// `COUNT(*)` over `table`.
fn count_query(table: &str) -> Query {
    Query {
        name: "fleet count".into(),
        op: OpTemplate::ScanAgg {
            table: table.into(),
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        },
        finalize: Finalize::AggRow,
    }
}

/// An array answers a group-by and a join as one device does, on both
/// routes: the gathered group rows are folded by key once on the host, and
/// each device's probe share meets the whole build table. In a workload no
/// arrival fails. A table in the wrong placement — a join built over a
/// partitioned `r`, a scan-aggregate over a whole `r` — is refused before
/// any `OPEN`, with no session left open.
#[test]
fn an_array_answers_group_by_and_join_on_both_routes() {
    for n in [1, 2, 4] {
        let mut sys = group_join_array(n);
        for query in [group_query(), join_query()] {
            let join = matches!(query.op, OpTemplate::Join { .. });
            for route in [Route::Device, Route::Host] {
                let r = sys.run(&query, RunOptions::routed(route)).unwrap().result;
                let at = format!("{} on {n} devices, {route:?}", query.name);
                if join {
                    assert_eq!(r.agg_values, vec![8_000, 796_000], "{at}");
                } else {
                    let keys: Vec<_> = r.rows.iter().map(|t| t[0].as_i64()).collect();
                    let counts: Vec<_> = r.rows.iter().map(|t| t[1].as_i64()).collect();
                    assert_eq!(keys, vec![0, 1, 2], "{at}");
                    assert_eq!(counts, vec![2_667, 2_667, 2_666], "{at}");
                }
            }
            let mut w = Workload::new();
            let input = query.op.tables().next().unwrap();
            for q in [query.clone(), count_query(input)] {
                w.push(q, RoutePolicy::Force(Route::Device), SimTime::ZERO);
            }
            let rep = sys.run_workload(&w, WorkloadOptions::new()).unwrap();
            assert_eq!(rep.failed, 0, "{} on {n} devices", query.name);
            assert_eq!(rep.completions.len(), 2);
            let count = rep.completions.iter().find(|c| &*c.query == "fleet count");
            assert_eq!(count.unwrap().result.agg_values, vec![8_000]);
            assert_eq!(sys.open_device_sessions(), 0);
        }
        if n == 1 {
            continue;
        }
        // The same `r`, reloaded in the placement each operator refuses.
        for (query, whole) in [(join_query(), false), (count_query("r"), true)] {
            if whole {
                sys.load_table_rows("r", &schema(), r_rows()).unwrap();
            } else {
                sys.load_partitioned("r", &schema(), r_rows()).unwrap();
            }
            for route in [Route::Device, Route::Host] {
                let err = sys.run(&query, RunOptions::routed(route)).unwrap_err();
                let RunErrorKind::NotOnArray { table, devices } = err.kind() else {
                    panic!("{} on {n} devices, {route:?}: {err}", query.name)
                };
                assert_eq!((table.as_str(), *devices), ("r", n), "{err}");
                // A run starts every device's work receipt at zero.
                for d in 0..n {
                    let work = *sys.device(d).total_work();
                    assert_eq!(work, WorkCounts::default(), "device {d} ran, {route:?}");
                }
            }
            assert_eq!(sys.open_device_sessions(), 0);
        }
    }
}

/// An array's table state is every device's: a full warm-up caches every
/// device's share, so a host pass then reads no flash, and the pool
/// counters count every device's pool. A table loaded from rows and a
/// prebuilt image both land whole on every device, a rewrite keeps that,
/// and a join builds on either.
#[test]
fn an_array_warms_and_counts_every_devices_share() {
    let rows = || (0..40_000).map(|k| vec![Datum::I32(k % 1_000), Datum::I64(k as i64)]);
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .devices(4)
        .build();
    sys.load_partitioned("t", &schema(), rows()).unwrap();
    let share = sys.catalog().get("t").unwrap().num_pages;
    let mut img = TableBuilder::new("v", schema(), Layout::Pax);
    img.extend(rows());
    let img = img.finish();
    let writes =
        |sys: &System| -> Vec<u64> { (0..4).map(|d| sys.device(d).flash.stats().writes).collect() };
    let before = writes(&sys);
    sys.load_table_rows("u", &schema(), rows()).unwrap();
    sys.load_table("v", &img).unwrap();
    let whole = img.num_pages() as u64;
    assert_eq!(sys.catalog().get("u").unwrap().num_pages, whole);
    assert_eq!(sys.catalog().get("v").unwrap().num_pages, whole);
    for (d, (b, a)) in before.into_iter().zip(writes(&sys)).enumerate() {
        assert_eq!(a - b, 2 * whole, "device {d} holds u and v whole");
    }
    sys.finish_load();
    sys.warm_cache("t", 1.0).unwrap();
    assert_eq!(sys.residency("t"), 1.0);
    assert_eq!(sys.residency("u"), 0.0);
    let mut w = Workload::new();
    w.push(
        agg_query(i64::MAX),
        RoutePolicy::Force(Route::Host),
        SimTime::ZERO,
    );
    let rep = sys.run_workload(&w, WorkloadOptions::new()).unwrap();
    assert_eq!(rep.completions[0].result.agg_values[0], 40_000);
    assert_eq!(rep.flash_reads, 0, "a warm array read flash");
    assert_eq!((rep.pool_hits, rep.pool_misses), (4 * share, 4 * share));
    // The planner reads the same residency and weighs it as a cost: with
    // every share cached the host pays no transfer, but its one pass over
    // four shares still costs more than four devices scanning theirs in
    // parallel, so the planned route is the faster one, the device.
    let time = |sys: &mut System, opts| {
        let r = sys.run(&agg_query(i64::MAX), opts).unwrap();
        (r.route, r.result.elapsed)
    };
    let planned = time(&mut sys, RunOptions::planned());
    let device = time(&mut sys, RunOptions::routed(Route::Device));
    let host = time(&mut sys, RunOptions::routed(Route::Host));
    assert_eq!(planned, device);
    assert!(device.1 < host.1, "device {device:?}, host {host:?}");
    // Every one of `t`'s 40,000 rows meets the 40 build rows of its key
    // (k mod 1,000 repeats 40 times in 40,000 rows).
    // A rewrite keeps the placement: `v`, rewritten with 20 rows a key, is
    // still whole on every device.
    sys.update_table_rows("v", rows().take(20_000)).unwrap();
    for (build, per_key) in [("u", 40), ("v", 20)] {
        let mut join = join_query();
        let OpTemplate::Join { probe, spec } = &mut join.op else {
            unreachable!()
        };
        (*probe, spec.build.table) = ("t".into(), build.into());
        for route in [Route::Device, Route::Host] {
            let r = sys.run(&join, RunOptions::routed(route)).unwrap().result;
            assert_eq!(
                r.agg_values[0],
                40_000 * per_key,
                "build {build}, {route:?}"
            );
        }
    }
}
