//! Differential tests of an N-device Smart SSD array: a `System` built with
//! `SystemBuilder::devices(n)` and loaded with `load_partitioned`.
//!
//! The array's load-bearing property: scatter/gather over N shards is an
//! *answer-preserving* transformation. For any table contents, any shard
//! count, either interface mode, with or without hedging, and under
//! injected device crashes, the merged answer is bit-identical to a
//! single-device run of the same query. Faults and hedging may move
//! timing; they must never move answers.

use proptest::prelude::*;
use smartssd::{
    BreakerPolicy, BreakerState, DeviceKind, HedgePolicy, InterfaceMode, Layout, QueryResult,
    Route, RoutePolicy, RunErrorKind, RunOptions, RunReport, SimTime, System, SystemBuilder,
    Workload, WorkloadOptions,
};
use smartssd_exec::spec::ScanAggSpec;
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_sim::FaultPlan;
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, Tuple};
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
