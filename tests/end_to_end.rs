//! End-to-end integration: the paper's queries on every device x layout
//! configuration, with results cross-checked against an in-memory reference
//! executor.

use smartssd::{
    ChromeTraceSink, DeviceKind, Layout, Route, RoutePolicy, RunErrorKind, RunOptions, SimTime,
    System, SystemBuilder, Workload, WorkloadOptions,
};
use smartssd_storage::Tuple;
use smartssd_workload::{
    dates::date_to_days, join_query, q1, q14, q6, queries, synthetic::synthetic_schema,
    synthetic64_r, synthetic64_s, tpch, tpch::lineitem_cols as l,
};

const SF: f64 = 0.005; // 30k LINEITEM rows
const SYNTH: f64 = 0.0001; // 40k S rows, 100 R rows
const SEED: u64 = 7;

fn tpch_system(kind: DeviceKind, layout: Layout) -> System {
    load_tpch(SystemBuilder::new(kind, layout))
}

fn load_tpch(b: SystemBuilder) -> System {
    let mut sys = b.build();
    sys.load_table_rows(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(SF, SEED),
    )
    .unwrap();
    sys.load_table_rows(
        queries::PART,
        &tpch::part_schema(),
        tpch::part_rows(SF, SEED),
    )
    .unwrap();
    sys.finish_load();
    sys
}

fn synth_system(kind: DeviceKind, layout: Layout) -> System {
    let mut sys = SystemBuilder::new(kind, layout).build();
    sys.load_table_rows(
        queries::SYNTH_R,
        &synthetic_schema(),
        synthetic64_r(SYNTH, SEED),
    )
    .unwrap();
    sys.load_table_rows(
        queries::SYNTH_S,
        &synthetic_schema(),
        synthetic64_s(SYNTH, SYNTH, SEED),
    )
    .unwrap();
    sys.finish_load();
    sys
}

/// Reference Q6 computed directly over the generated rows.
fn q6_reference() -> i128 {
    let lo = date_to_days(1994, 1, 1);
    let hi = date_to_days(1995, 1, 1);
    tpch::lineitem_rows(SF, SEED)
        .filter(|t| {
            let ship = t[l::SHIPDATE].as_i64();
            let disc = t[l::DISCOUNT].as_i64();
            let qty = t[l::QUANTITY].as_i64();
            ship >= lo && ship < hi && disc > 5 && disc < 7 && qty < 24
        })
        .map(|t| (t[l::EXTENDEDPRICE].as_i64() * t[l::DISCOUNT].as_i64()) as i128)
        .sum()
}

#[test]
fn q6_identical_on_all_configurations() {
    let expected = q6_reference();
    assert!(expected > 0, "reference sum must be non-trivial");
    for kind in [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::SmartSsd] {
        for layout in [Layout::Nsm, Layout::Pax] {
            let mut sys = tpch_system(kind, layout);
            let r = sys.run(&q6(), RunOptions::default()).unwrap();
            assert_eq!(
                r.result.agg_values[0], expected,
                "Q6 mismatch on {kind:?}/{layout}"
            );
        }
    }
}

#[test]
fn q6_device_route_equals_host_route_on_same_system() {
    let mut sys = tpch_system(DeviceKind::SmartSsd, Layout::Pax);
    let dev = sys.run(&q6(), RunOptions::routed(Route::Device)).unwrap();
    sys.clear_cache();
    let host = sys.run(&q6(), RunOptions::routed(Route::Host)).unwrap();
    assert_eq!(dev.result.agg_values, host.result.agg_values);
    assert_eq!(dev.route, Route::Device);
    assert_eq!(host.route, Route::Host);
    // Same answer, different time: the pushdown should win on PAX.
    assert!(dev.result.elapsed < host.result.elapsed);
}

/// Reference Q14 over the raw generated rows.
fn q14_reference() -> f64 {
    let parts: Vec<Tuple> = tpch::part_rows(SF, SEED).collect();
    let lo = date_to_days(1995, 9, 1);
    let hi = date_to_days(1995, 10, 1);
    let mut promo: i128 = 0;
    let mut total: i128 = 0;
    for t in tpch::lineitem_rows(SF, SEED) {
        let ship = t[l::SHIPDATE].as_i64();
        if ship < lo || ship >= hi {
            continue;
        }
        let pk = t[l::PARTKEY].as_i64() as usize;
        let part = &parts[pk - 1];
        let rev = (t[l::EXTENDEDPRICE].as_i64() * (100 - t[l::DISCOUNT].as_i64())) as i128;
        total += rev;
        if part[tpch::part_cols::TYPE].as_bytes().starts_with(b"PROMO") {
            promo += rev;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * promo as f64 / total as f64
    }
}

#[test]
fn q14_identical_on_all_configurations_and_sane() {
    let expected = q14_reference();
    // One part type in six is PROMO; promo_revenue should be in that
    // neighbourhood, like TPC-H's reference answer (~16%).
    assert!(
        (8.0..30.0).contains(&expected),
        "promo_revenue reference {expected}"
    );
    for kind in [DeviceKind::Ssd, DeviceKind::SmartSsd] {
        for layout in [Layout::Nsm, Layout::Pax] {
            let mut sys = tpch_system(kind, layout);
            let r = sys.run(&q14(), RunOptions::default()).unwrap();
            let got = r.result.scalar.expect("q14 produces a scalar");
            assert!(
                (got - expected).abs() < 1e-9,
                "Q14 mismatch on {kind:?}/{layout}: {got} vs {expected}"
            );
        }
    }
}

/// Reference join over the raw generated rows.
fn join_reference(selectivity: f64) -> Vec<(i64, i64)> {
    let r_rows: Vec<Tuple> = synthetic64_r(SYNTH, SEED).collect();
    let cutoff = (smartssd_workload::synthetic::SEL_DOMAIN as f64 * selectivity) as i64;
    let mut out = Vec::new();
    for s_row in synthetic64_s(SYNTH, SYNTH, SEED) {
        if s_row[2].as_i64() >= cutoff {
            continue;
        }
        let fk = s_row[1].as_i64();
        // R.col_1 is the dense PK 1..=n.
        if fk >= 1 && fk <= r_rows.len() as i64 {
            let r_row = &r_rows[(fk - 1) as usize];
            out.push((s_row[0].as_i64(), r_row[1].as_i64()));
        }
    }
    out
}

#[test]
fn join_rows_identical_on_all_configurations() {
    for &sel in &[0.01, 0.5] {
        let expected = join_reference(sel);
        assert!(!expected.is_empty());
        for kind in [DeviceKind::Ssd, DeviceKind::SmartSsd] {
            for layout in [Layout::Nsm, Layout::Pax] {
                let mut sys = synth_system(kind, layout);
                let r = sys.run(&join_query(sel), RunOptions::default()).unwrap();
                let got: Vec<(i64, i64)> = r
                    .result
                    .rows
                    .iter()
                    .map(|t| (t[0].as_i64(), t[1].as_i64()))
                    .collect();
                assert_eq!(got, expected, "join sel={sel} on {kind:?}/{layout}");
            }
        }
    }
}

#[test]
fn elapsed_and_energy_are_positive_and_consistent() {
    let mut sys = tpch_system(DeviceKind::SmartSsd, Layout::Pax);
    let r = sys.run(&q6(), RunOptions::default()).unwrap();
    assert!(r.result.elapsed.as_nanos() > 0);
    assert!(r.energy.system_kj() > 0.0);
    assert!(r.energy.io_kj() > 0.0);
    assert!(r.energy.io_kj() < r.energy.system_kj());
    assert!(r.energy.over_idle_kj() < r.energy.system_kj());
    // The bottleneck on a pushed-down Q6/PAX must be the device CPU
    // (Section 4.2.1's explanation of 1.7x instead of 2.8x).
    let (bottleneck, util) = r.util.bottleneck().unwrap();
    assert_eq!(bottleneck, "device-cpu", "util report: {}", r.util);
    assert!(util > 0.9);
}

#[test]
fn hdd_is_much_slower_than_both_ssds() {
    let q = q6();
    let mut hdd = tpch_system(DeviceKind::Hdd, Layout::Nsm);
    let mut ssd = tpch_system(DeviceKind::Ssd, Layout::Nsm);
    let t_hdd = hdd.run(&q, RunOptions::default()).unwrap().result.elapsed;
    let t_ssd = ssd.run(&q, RunOptions::default()).unwrap().result.elapsed;
    let ratio = t_hdd.as_secs_f64() / t_ssd.as_secs_f64();
    assert!(ratio > 4.0, "HDD/SSD ratio {ratio:.1}");
}

/// The SAS SSD baseline is the Smart SSD with its device route refused (the
/// paper's prototype is "the same SSD" with a runtime added): on the same
/// tables, under injected ECC retries, failures and escapes, cold and half
/// cached, its natural run equals the Smart SSD's forced host run to the
/// nanosecond — answer, work, fault counters, host CPU, flash and link
/// meters — and to the byte of its Chrome trace; only a Smart SSD meters an
/// embedded CPU. A device route on it is refused before anything runs.
#[test]
fn sas_ssd_is_the_smart_ssds_host_route() {
    for layout in [Layout::Nsm, Layout::Pax] {
        let [mut ssd, mut smart] = [DeviceKind::Ssd, DeviceKind::SmartSsd].map(|kind| {
            let b = SystemBuilder::new(kind, layout).fault_rates(1 << 28, 1 << 26, 1 << 26);
            load_tpch(b.trace(ChromeTraceSink::new()))
        });
        for (query, warm) in [(q6(), 0.0), (q14(), 0.0), (q1(), 0.5), (q6(), 0.5)] {
            let cell = format!("{} on {layout}, {warm} cached", query.name);
            for sys in [&mut ssd, &mut smart] {
                sys.clear_cache();
                sys.warm_cache(queries::LINEITEM, warm).unwrap();
            }
            let a = ssd.run(&query, RunOptions::default()).unwrap();
            let b = smart.run(&query, RunOptions::routed(Route::Host)).unwrap();
            assert_eq!((a.route, b.route), (Route::Host, Route::Host), "{cell}");
            assert_eq!(a.result.elapsed, b.result.elapsed, "{cell}");
            assert_eq!(a.result.agg_values, b.result.agg_values, "{cell}");
            assert_eq!(a.result.rows, b.result.rows, "{cell}");
            assert_eq!(a.result.work, b.result.work, "{cell}");
            assert_eq!(a.faults, b.faults, "{cell}");
            assert!(
                a.faults.read_retries > 0 && a.faults.ecc_retries > 0,
                "{cell}"
            );
            for meter in ["host-cpu-thread", "io-device", "host-interface"] {
                let util = |r: &smartssd::RunReport| r.util.utilization(meter);
                assert_eq!(util(&a), util(&b), "{cell}: {meter}");
            }
            assert_eq!(a.util.utilization("device-cpu"), None, "{cell}");
            assert!(a.trace.chrome_json().is_some(), "{cell}");
            assert_eq!(a.trace.chrome_json(), b.trace.chrome_json(), "{cell}");
        }
        let err = ssd
            .run(&q6(), RunOptions::routed(Route::Device))
            .unwrap_err();
        assert!(matches!(err.kind(), RunErrorKind::NotSmart));
        assert!(!err.fault_counters().any(), "nothing ran: {err}");
        assert_eq!(ssd.open_device_sessions(), 0);
    }
}

#[test]
fn warm_cache_removes_device_traffic() {
    let mut sys = tpch_system(DeviceKind::Ssd, Layout::Nsm);
    let cold = sys.run(&q6(), RunOptions::default()).unwrap();
    assert!(cold.util.utilization("io-device").unwrap_or(0.0) > 0.0);
    sys.warm_cache(queries::LINEITEM, 1.0).unwrap();
    assert!(sys.residency(queries::LINEITEM) > 0.99);
    let warm = sys.run(&q6(), RunOptions::default()).unwrap();
    // Fully cached: the device is never touched, and the run is no slower
    // (the paper's host Q6 is CPU-bound, so elapsed barely moves — that is
    // precisely why the Discussion says cached data kills pushdown's
    // advantage rather than the host's).
    assert_eq!(warm.util.utilization("io-device"), Some(0.0));
    assert!(warm.result.elapsed <= cold.result.elapsed);
    assert_eq!(warm.result.agg_values, cold.result.agg_values);
}

/// A single run *is* a one-arrival workload: on every device x layout x
/// route the paper's figures use, and for every query shape, `System::run`
/// and a one-item `run_workload` at time zero over the linked protocol
/// agree bit for bit — timing, answers, work receipt and route.
#[test]
fn single_run_equals_one_arrival_workload() {
    let host = RoutePolicy::Force(Route::Host);
    let configs = [
        (DeviceKind::Hdd, Layout::Nsm, RoutePolicy::Natural),
        (DeviceKind::Ssd, Layout::Nsm, RoutePolicy::Natural),
        (DeviceKind::Ssd, Layout::Pax, RoutePolicy::Natural),
        (DeviceKind::SmartSsd, Layout::Nsm, RoutePolicy::Natural),
        (DeviceKind::SmartSsd, Layout::Pax, RoutePolicy::Natural),
        (DeviceKind::SmartSsd, Layout::Pax, host),
    ];
    type Build = fn(DeviceKind, Layout) -> System;
    let queries = [
        (q6(), tpch_system as Build),
        (q14(), tpch_system),
        (q1(), tpch_system),
        (join_query(0.01), synth_system),
        (join_query(1.0), synth_system),
    ];
    for (kind, layout, route) in &configs {
        for (query, build) in &queries {
            let cell = format!("{} on {kind:?}/{layout} ({route:?})", query.name);
            let opts = RunOptions {
                route: *route,
                ..RunOptions::default()
            };
            let single = build(*kind, *layout).run(query, opts).unwrap();
            let mut w = Workload::new();
            w.push(query.clone(), *route, SimTime::ZERO);
            let rep = build(*kind, *layout)
                .run_workload(&w, WorkloadOptions::default())
                .unwrap();
            let one = &rep.completions[0];
            assert_eq!(one.route, single.route, "{cell}");
            assert_eq!(one.result.elapsed, single.result.elapsed, "{cell}");
            assert_eq!(rep.makespan, single.result.elapsed, "{cell}");
            assert_eq!(one.result.rows, single.result.rows, "{cell}");
            assert_eq!(one.result.agg_values, single.result.agg_values, "{cell}");
            assert_eq!(one.result.scalar, single.result.scalar, "{cell}");
            assert_eq!(one.result.work, single.result.work, "{cell}");
            assert_eq!(rep.faults, single.faults, "{cell}");
        }
    }
}
