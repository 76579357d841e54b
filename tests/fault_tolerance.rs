//! Differential fault-injection tests.
//!
//! The contract of the recovery machinery (device `read_page`, host
//! `LinkedFlashView::read_page`, and the query-layer `SessionDriver`):
//! injected flash faults may cost *simulated time*, and are counted in
//! [`FaultCounters`], but they never change query answers and never break
//! determinism.

use proptest::prelude::*;
use smartssd::{
    ArrivalOutcome, BreakerPolicy, DeviceKind, Layout, Route, RoutePolicy, RunErrorKind,
    RunOptions, RunReport, System, SystemBuilder, SystemConfig, Workload, WorkloadOptions,
};
use smartssd_exec::spec::ScanAggSpec;
use smartssd_flash::{FlashConfig, FlashSsd, READ_RETRY_LIMIT};
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_sim::{FaultPlan, SimTime};
use smartssd_storage::expr::{AggSpec, Expr, Pred};
use smartssd_storage::page::PageError;
use smartssd_storage::{pax, DataType, Datum, PageBuf, Schema, TableBuilder, Tuple};
use std::sync::Arc;

const N_ROWS: i32 = 20_000;

fn small_schema() -> Arc<Schema> {
    Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
}

fn rows(n: i32) -> impl Iterator<Item = Tuple> {
    (0..n).map(|k| vec![Datum::I32(k), Datum::I64(k as i64)])
}

fn sum_query() -> Query {
    sum_over("t")
}

fn sum_over(table: &str) -> Query {
    Query {
        name: "fault sum".into(),
        op: OpTemplate::ScanAgg {
            table: table.into(),
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        },
        finalize: Finalize::AggRow,
    }
}

/// Builds the standard single-table system with the given flash fault
/// rates, applying `tweak` to the config.
fn faulty_system(flash: FlashConfig, tweak: impl FnOnce(&mut SystemConfig)) -> System {
    let mut cfg = SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax);
    cfg.flash = flash;
    tweak(&mut cfg);
    let mut sys = SystemBuilder::from_config(cfg).build();
    sys.load_table_rows("t", &small_schema(), rows(N_ROWS))
        .unwrap();
    sys.finish_load();
    sys
}

/// Runs the sum query on `route` on a freshly built [`faulty_system`].
fn run_case(
    flash: FlashConfig,
    route: Route,
    tweak: impl FnOnce(&mut SystemConfig),
) -> Result<RunReport, smartssd::RunError> {
    faulty_system(flash, tweak).run(&sum_query(), RunOptions::routed(route))
}

fn expected_sum() -> i128 {
    (0..N_ROWS as i128).sum()
}

/// Shared assertion for both read paths (device `read_page` under
/// `Route::Device`, host `LinkedFlashView::read_page` under `Route::Host`):
/// when every read suffers one recoverable uncorrectable error, the retries
/// are posted at the failed reads' completion times, so recovery shows up as
/// strictly more simulated elapsed time — never as a changed answer.
fn assert_recovery_is_charged(route: Route) {
    let clean = run_case(FlashConfig::default(), route, |_| {}).unwrap();
    let faulty = run_case(
        FlashConfig {
            ecc_fail_rate: u32::MAX,
            ..FlashConfig::default()
        },
        route,
        |_| {},
    )
    .unwrap();
    assert_eq!(clean.result.agg_values[0], expected_sum());
    assert_eq!(
        clean.result.agg_values, faulty.result.agg_values,
        "route {route:?}: answers must survive injected faults"
    );
    assert_eq!(faulty.route, route, "retries recover in place, no fallback");
    assert!(
        faulty.faults.read_retries > 0,
        "route {route:?}: retries must be counted"
    );
    assert!(!clean.faults.any(), "clean run must report zero faults");
    assert!(
        faulty.result.elapsed > clean.result.elapsed,
        "route {route:?}: recovery must cost simulated time \
         (clean {:?}, faulty {:?})",
        clean.result.elapsed,
        faulty.result.elapsed
    );
}

#[test]
fn device_read_retries_are_charged_at_failure_time() {
    assert_recovery_is_charged(Route::Device);
}

#[test]
fn host_read_retries_are_charged_at_failure_time() {
    assert_recovery_is_charged(Route::Host);
}

/// The standard system with its buffer pool warmed by a full pass, then
/// page `at` of the table stored corrupted on flash: the device spends its
/// `READ_RETRY_LIMIT` retries on that page and gives up, while the host
/// answers from its fresher pool copy (the paper's Section 4.3 situation).
fn stale_flash_system(at: u64) -> System {
    let mut sys = faulty_system(FlashConfig::default(), |_| {});
    sys.warm_cache("t", 1.0).unwrap();
    let lba = sys.catalog().get("t").unwrap().first_lba + at;
    let flash = &mut sys.device_mut(0).flash;
    let (stored, _) = flash.peek_page(lba).unwrap();
    let bad = PageBuf::from_bytes(stored).unwrap().corrupted(0, 1);
    flash.write(lba, bad.raw().clone(), SimTime::ZERO).unwrap();
    sys.finish_load();
    sys
}

/// The standard system with a firmware crash scripted halfway through a
/// healthy device run: the session opens, and a later `GET` finds the
/// firmware resetting.
fn mid_collection_crash_system() -> System {
    let mut sys = faulty_system(FlashConfig::default(), |_| {});
    let healthy = sys.run(&sum_query(), RunOptions::routed(Route::Device));
    let half = SimTime::from_nanos(healthy.unwrap().result.elapsed.as_nanos() / 2);
    let mut sys = faulty_system(FlashConfig::default(), |_| {});
    sys.arm_fault_plan(&FaultPlan::new().crash_at(0, half));
    sys
}

#[test]
fn retry_exhaustion_falls_back_to_host() {
    // A page stored corrupted exhausts the device's retry budget:
    // `RetriesExhausted`; the session driver closes the session and the
    // system transparently re-runs on the host, which holds the page in
    // its pool.
    let r = stale_flash_system(3)
        .run(&sum_query(), RunOptions::routed(Route::Device))
        .unwrap();
    assert_eq!(r.route, Route::Host, "run must degrade to the host");
    assert_eq!(r.faults.read_retries, u64::from(READ_RETRY_LIMIT));
    assert_eq!(r.result.agg_values[0], expected_sum());
    assert_eq!(r.faults.fallbacks, 1);
    assert!(
        r.faults.wasted_ns > 0,
        "the failed device attempt cost time"
    );

    // Recovery is paid in simulated time: the host re-run starts at the
    // fault, so the wasted device attempt stays in the run's elapsed time.
    assert!(r.result.elapsed.as_nanos() > r.faults.wasted_ns);
}

/// One fallback rule on every engine: a single run whose device attempt
/// faults is exactly a one-arrival workload whose device attempt faults —
/// same route, answers, elapsed time (wasted attempt included) and fault
/// counters — and neither leaves a session open.
#[test]
fn faulted_single_run_equals_one_arrival_workload() {
    type Setup = fn() -> System;
    let exhaustion: Setup = || stale_flash_system(3);
    let mid_collection: Setup = mid_collection_crash_system;
    let crash: Setup = || {
        faulty_system(FlashConfig::default(), |cfg| {
            cfg.smart.fault_rates.crash_rate = u32::MAX;
        })
    };
    for (name, setup) in [
        ("retry exhaustion", exhaustion),
        ("crash mid-collection", mid_collection),
        ("firmware crash", crash),
    ] {
        let mut single_sys = setup();
        let single = single_sys
            .run(&sum_query(), RunOptions::routed(Route::Device))
            .unwrap();
        let mut workload_sys = setup();
        let mut w = Workload::new();
        w.push(
            sum_query(),
            RoutePolicy::Force(Route::Device),
            SimTime::ZERO,
        );
        let rep = workload_sys
            .run_workload(&w, WorkloadOptions::default())
            .unwrap();
        let one = &rep.completions[0];

        assert_eq!(single.route, Route::Host, "{name}: run must degrade");
        assert_eq!(one.route, single.route, "{name}");
        assert_eq!(single.result.agg_values[0], expected_sum(), "{name}");
        assert_eq!(one.result.agg_values, single.result.agg_values, "{name}");
        assert_eq!(one.result.elapsed, single.result.elapsed, "{name}");
        assert_eq!(rep.faults, single.faults, "{name}");
        assert_eq!(single.faults.fallbacks, 1, "{name}");
        assert!(
            single.result.elapsed.as_nanos() > single.faults.wasted_ns,
            "{name}: the wasted attempt is on the clock"
        );
        assert_eq!(single_sys.open_device_sessions(), 0, "{name}");
        assert_eq!(workload_sys.open_device_sessions(), 0, "{name}");
    }
}

/// A session abandoned after a successful `OPEN`: the crash kills it at a
/// later `GET`, and the query re-runs on the host after the reset.
#[test]
fn mid_collection_crash_falls_back_to_host() {
    let r = mid_collection_crash_system()
        .run(&sum_query(), RunOptions::routed(Route::Device))
        .unwrap();
    assert_eq!(r.route, Route::Host);
    assert_eq!(r.result.agg_values[0], expected_sum());
    assert_eq!(r.faults.fallbacks, 1);
    assert_eq!(r.faults.device_crashes, 1);
    assert!(r.faults.wasted_ns > 0);
}

/// A host pass that fails ends only its own arrival. Three arrivals scan
/// `good`, `bad`, `good` at 0, 1 and 2 ms, and page 1 of `bad` is stored
/// corrupted, so no route can read it: the host route exhausts its read
/// retries, and the device route exhausts the firmware's, then fails over
/// to the host, which does too. The two good answers still come back, the
/// bad arrival is `Failed` with the host's error, and no session is left
/// open. A single run of the bad query returns that error, typed.
#[test]
fn a_failed_host_pass_fails_only_its_arrival() {
    let mut b = TableBuilder::new("bad", small_schema(), Layout::Pax);
    b.extend(rows(N_ROWS));
    let bad = b.finish();
    for route in [Route::Host, Route::Device] {
        let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
        sys.load_table_rows("good", &small_schema(), rows(N_ROWS))
            .unwrap();
        sys.load_table("bad", &bad).unwrap();
        let lba = sys.catalog().get("bad").unwrap().first_lba + 1;
        let corrupted = bad.pages()[1].corrupted(0, 1);
        let flash = &mut sys.device_mut(0).flash;
        flash
            .write(lba, corrupted.raw().clone(), SimTime::ZERO)
            .unwrap();
        sys.finish_load();

        let mut w = Workload::new();
        for (i, table) in ["good", "bad", "good"].into_iter().enumerate() {
            let at = SimTime::from_millis(i as u64);
            w.push(sum_over(table), RoutePolicy::Force(route), at);
        }
        let rep = sys.run_workload(&w, WorkloadOptions::default()).unwrap();
        assert_eq!(rep.completions.len(), 2, "{route:?}");
        for done in &rep.completions {
            assert_eq!(done.result.agg_values[0], expected_sum(), "{route:?}");
        }
        let ArrivalOutcome::Failed(failed) = &rep.outcomes[1] else {
            panic!("{route:?}: the bad arrival must fail");
        };
        assert!(
            failed
                .reason
                .starts_with("engine: io: read retries exhausted"),
            "{route:?}: {}",
            failed.reason
        );
        assert_eq!(rep.failed, 1, "{route:?}");
        assert_eq!(sys.open_device_sessions(), 0, "{route:?}");

        let err = sys
            .run(&sum_over("bad"), RunOptions::routed(route))
            .unwrap_err();
        assert!(
            matches!(err.kind(), RunErrorKind::Engine(_)),
            "{route:?}: {err}"
        );
        assert_eq!(err.to_string(), failed.reason, "{route:?}");
    }
}

/// Saturated silent corruption: the first read of every page is an ECC
/// escape (one flipped bit, no error), the re-read returns the truth.
fn escape_on_every_first_read() -> FlashConfig {
    FlashConfig {
        silent_corruption_rate: u32::MAX,
        ..FlashConfig::default()
    }
}

/// Every injected ECC escape is caught, at the flash boundary: with the
/// injection rate saturated, each read that bumps `silent_corruptions`
/// hands back bytes that fail page validation with a checksum mismatch,
/// and the re-read of that LBA validates.
#[test]
fn every_injected_escape_fails_validation_and_the_reread_passes() {
    let mut b = TableBuilder::new("t", small_schema(), Layout::Pax);
    b.extend(rows(N_ROWS));
    let img = b.finish();
    let mut ssd = FlashSsd::new(escape_on_every_first_read());
    for (lba, page) in img.pages().iter().enumerate() {
        ssd.write(lba as u64, page.raw().clone(), SimTime::ZERO)
            .unwrap();
    }
    for lba in 0..img.num_pages() as u64 {
        let before = ssd.stats().silent_corruptions;
        let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
        assert_eq!(
            ssd.stats().silent_corruptions,
            before + 1,
            "saturated rate: the first read of LBA {lba} is an escape"
        );
        match PageBuf::from_bytes(data) {
            Err(PageError::ChecksumMismatch { .. }) => {}
            other => panic!("escape at LBA {lba} got past validation: {other:?}"),
        }
        let (data, _) = ssd.read(lba, SimTime::ZERO).unwrap();
        assert_eq!(ssd.stats().silent_corruptions, before + 1);
        assert!(PageBuf::from_bytes(data).is_ok(), "re-read of LBA {lba}");
    }
    assert_eq!(ssd.stats().silent_corruptions, img.num_pages() as u64);
}

/// The same accounting through the whole system, on both read paths: with
/// every first read of a page an escape, `escapes_detected` is exactly the
/// table's page count (none slipped through, none double counted) and the
/// answer is the clean run's.
#[test]
fn saturated_escapes_are_all_detected_on_both_routes() {
    let pages = (N_ROWS as usize).div_ceil(pax::capacity(small_schema().tuple_width()));
    for route in [Route::Device, Route::Host] {
        let clean = run_case(FlashConfig::default(), route, |_| {}).unwrap();
        let faulty = run_case(escape_on_every_first_read(), route, |_| {}).unwrap();
        assert_eq!(faulty.route, route, "re-reads recover in place");
        assert_eq!(faulty.result.rows, clean.result.rows);
        assert_eq!(faulty.result.agg_values, clean.result.agg_values);
        assert_eq!(faulty.result.agg_values[0], expected_sum());
        assert_eq!(
            faulty.faults.escapes_detected, pages as u64,
            "route {route:?}: one detected escape per page"
        );
        assert_eq!(faulty.faults.read_retries, pages as u64);
        assert!(faulty.result.elapsed > clean.result.elapsed);
    }
}

/// A warm read lends the page its decode memo validated, and nothing else:
/// with ECC escapes injected on LBAs whose clean pages are already
/// memoized (the device's memo, and the host route's behind an emptied
/// pool), every warm run's answer is the clean system's and its escapes are
/// caught and re-read.
#[test]
fn warm_reads_lend_only_validated_pages_on_both_routes() {
    let faulty = FlashConfig {
        silent_corruption_rate: u32::MAX / 4,
        ..FlashConfig::default()
    };
    for route in [Route::Device, Route::Host] {
        let mut clean = faulty_system(FlashConfig::default(), |_| {});
        let mut sys = faulty_system(faulty.clone(), |_| {});
        for rep in 0..4 {
            let want = clean.run(&sum_query(), RunOptions::routed(route)).unwrap();
            let got = sys.run(&sum_query(), RunOptions::routed(route)).unwrap();
            assert_eq!(got.route, route);
            assert_eq!(got.result.rows, want.result.rows, "{route:?} run {rep}");
            assert_eq!(got.result.agg_values, want.result.agg_values);
            assert_eq!(got.result.agg_values[0], expected_sum());
            assert!(
                got.faults.escapes_detected > 0,
                "{route:?} run {rep}: no escape reached validation"
            );
            clean.clear_cache();
            sys.clear_cache();
        }
    }
}

/// The keys of a flat JSON object, in order.
fn json_keys(json: &str) -> Vec<&str> {
    json.split('"').skip(1).step_by(2).collect()
}

/// One schema for the fault counters: every run prints the same 13 keys in
/// the same order, whether it was clean, absorbed escapes, or tripped the
/// breaker on a slow device.
#[test]
fn fault_counters_json_has_every_field() {
    const KEYS: [&str; 13] = [
        "ecc_retries",
        "ecc_failures",
        "escapes_detected",
        "read_retries",
        "fallbacks",
        "wasted_ns",
        "device_crashes",
        "killed_sessions",
        "reset_downtime_ns",
        "slow_trips",
        "hedges",
        "hedge_wins",
        "hedge_denied",
    ];
    let clean = run_case(FlashConfig::default(), Route::Device, |_| {}).unwrap();
    assert!(!clean.faults.any());
    assert_eq!(json_keys(&clean.faults.to_json()), KEYS);

    let faulty = FlashConfig {
        silent_corruption_rate: u32::MAX / 8,
        ..FlashConfig::default()
    };
    let r = run_case(faulty, Route::Device, |_| {}).unwrap();
    assert!(r.faults.escapes_detected > 0);
    let json = r.faults.to_json();
    assert_eq!(json_keys(&json), KEYS);
    assert!(json.contains(&format!(
        "\"escapes_detected\": {}",
        r.faults.escapes_detected
    )));

    // Eight spaced device arrivals; the device turns 8x slow after the
    // breaker's two baseline samples, so the latency rule trips it.
    let gap = SimTime::from_nanos(clean.result.elapsed.as_nanos() * 4);
    let slow_from = SimTime::from_nanos(gap.as_nanos() * 2);
    let plan = FaultPlan::new().slowdown(0, 8, slow_from, SimTime::from_secs(3600));
    let breaker = BreakerPolicy {
        slow_trip_factor: 2,
        baseline_samples: 2,
        ..BreakerPolicy::enabled()
    };
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .breaker(breaker)
        .fault_plan(&plan)
        .build();
    sys.load_table_rows("t", &small_schema(), rows(N_ROWS))
        .unwrap();
    sys.finish_load();
    let mut w = Workload::new();
    for i in 0..8 {
        let at = SimTime::from_nanos(gap.as_nanos() * i);
        w.push(sum_query(), RoutePolicy::Force(Route::Device), at);
    }
    let rep = sys.run_workload(&w, WorkloadOptions::default()).unwrap();
    assert!(rep.faults.slow_trips > 0, "{:?}", rep.faults);
    let json = rep.faults.to_json();
    assert_eq!(json_keys(&json), KEYS);
    assert!(json.contains(&format!("\"slow_trips\": {}", rep.faults.slow_trips)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under *any* injected fault rates, on either route: answers are
    /// bit-identical to a fault-free run, execution is deterministic
    /// (identically-built systems agree on elapsed time and counters), and
    /// recovery never makes the run faster than the clean one.
    #[test]
    fn faults_never_change_answers(
        ecc_retry_rate in prop_oneof![Just(0u32), any::<u32>()],
        ecc_fail_rate in prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
        silent_corruption_rate in prop_oneof![Just(0u32), any::<u32>()],
        device_route in any::<bool>(),
    ) {
        let route = if device_route { Route::Device } else { Route::Host };
        let faulty_cfg = FlashConfig {
            ecc_retry_rate,
            ecc_fail_rate,
            silent_corruption_rate,
            ..FlashConfig::default()
        };
        let clean = run_case(FlashConfig::default(), route, |_| {}).unwrap();
        let a = run_case(faulty_cfg.clone(), route, |_| {}).unwrap();
        let b = run_case(faulty_cfg, route, |_| {}).unwrap();

        // Answers: bit-identical to the fault-free run.
        prop_assert_eq!(&a.result.rows, &clean.result.rows);
        prop_assert_eq!(&a.result.agg_values, &clean.result.agg_values);
        prop_assert_eq!(a.result.agg_values[0], expected_sum());

        // Determinism: two identically-built systems agree exactly.
        prop_assert_eq!(a.result.elapsed, b.result.elapsed);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.route, b.route);

        // Recovery costs time (or nothing, when a sparse retry hides in
        // the slack of a non-critical resource) — it never saves time.
        prop_assert!(a.result.elapsed >= clean.result.elapsed);
        // At saturation every read fails once; that much recovery cannot
        // hide in resource slack on either route.
        if ecc_fail_rate == u32::MAX {
            prop_assert!(a.faults.read_retries > 0);
            prop_assert!(a.result.elapsed > clean.result.elapsed);
        }
    }
}
