//! Observability integration tests: the simulated-time trace layer must be
//! deterministic, must not perturb the simulation, and its counters must
//! agree exactly with the run's `UtilizationReport`.

use smartssd::Query;
use smartssd::{
    ChromeTraceSink, CounterSink, DeviceKind, HedgePolicy, Layout, Route, RunOptions, RunReport,
    SimTime, System, SystemBuilder, TraceSink,
};
use smartssd_sim::FaultPlan;
use smartssd_workload::{q14, q6, queries, tpch};

const SF: f64 = 0.005; // 30k LINEITEM rows
const SEED: u64 = 7;

fn traced_system(kind: DeviceKind, layout: Layout, sink: impl TraceSink + 'static) -> System {
    let mut sys = SystemBuilder::new(kind, layout).trace(sink).build();
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

fn chrome_run(kind: DeviceKind, layout: Layout, query: &Query, route: Route) -> RunReport {
    let mut sys = traced_system(kind, layout, ChromeTraceSink::new());
    sys.run(query, RunOptions::routed(route)).unwrap()
}

fn counter_run(kind: DeviceKind, layout: Layout, query: &Query, route: Route) -> RunReport {
    let mut sys = traced_system(kind, layout, CounterSink::new());
    sys.run(query, RunOptions::routed(route)).unwrap()
}

/// Two identical traced runs must serialize to byte-identical Chrome JSON:
/// the trace clock is simulated time, so there is no wall-clock jitter to
/// leak into the output.
#[test]
fn chrome_trace_is_byte_identical_across_runs() {
    for route in [Route::Device, Route::Host] {
        let a = chrome_run(DeviceKind::SmartSsd, Layout::Pax, &q6(), route);
        let b = chrome_run(DeviceKind::SmartSsd, Layout::Pax, &q6(), route);
        let ja = a.trace.chrome_json().expect("chrome trace present");
        let jb = b.trace.chrome_json().expect("chrome trace present");
        assert_eq!(a.result.elapsed, b.result.elapsed);
        assert_eq!(ja, jb, "trace for {route:?} route differs between runs");
        assert!(ja.starts_with("{\"displayTimeUnit\":\"ns\""));
    }
}

/// Attaching a sink must not change the simulation: elapsed time and answers
/// are identical with and without tracing.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let mut plain = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    plain
        .load_table_rows(
            queries::LINEITEM,
            &tpch::lineitem_schema(),
            tpch::lineitem_rows(SF, SEED),
        )
        .unwrap();
    plain.finish_load();
    let base = plain.run(&q6(), RunOptions::default()).unwrap();
    assert!(base.trace.is_none(), "no sink attached -> no trace");

    let traced = chrome_run(DeviceKind::SmartSsd, Layout::Pax, &q6(), base.route);
    assert_eq!(base.result.elapsed, traced.result.elapsed);
    assert_eq!(base.result.agg_values, traced.result.agg_values);
}

/// The single top-level "run" span must cover the whole run exactly: its
/// busy-ns counter equals the report's simulated elapsed time, and the
/// Chrome trace carries it at ts=0 under pid 0.
#[test]
fn run_span_duration_equals_report_elapsed() {
    for route in [Route::Device, Route::Host] {
        let rep = counter_run(DeviceKind::SmartSsd, Layout::Pax, &q6(), route);
        let counters = rep.trace.counters().expect("counter trace present");
        assert_eq!(
            counters.busy_ns("run"),
            rep.result.elapsed.as_nanos(),
            "run span for {route:?} route must equal elapsed"
        );

        let rep = chrome_run(DeviceKind::SmartSsd, Layout::Pax, &q6(), route);
        let json = rep.trace.chrome_json().unwrap();
        assert!(
            json.contains("\"name\":\"run\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":0"),
            "chrome trace must carry the top-level run span at ts=0"
        );
    }
}

/// CounterSink busy-ns totals must agree exactly with the run's
/// `UtilizationReport`: both are fed by the same occupancy intervals.
/// Exercised on the paper's Figure 3 (Q6) and Figure 7 (Q14) test beds.
#[test]
fn counter_sink_matches_utilization_report() {
    for (query, route) in [
        (q6(), Route::Device),
        (q6(), Route::Host),
        (q14(), Route::Device),
        (q14(), Route::Host),
    ] {
        let rep = counter_run(DeviceKind::SmartSsd, Layout::Pax, &query, route);
        let counters = rep.trace.counters().expect("counter trace present");
        // Trace category -> utilization component, for every resource the
        // utilization report tracks.
        for (cat, component) in [
            ("flash-dram", "io-device"),
            ("host-interface", "host-interface"),
            ("host-cpu", "host-cpu-thread"),
            ("device-cpu", "device-cpu"),
        ] {
            let util_busy = rep
                .util
                .components
                .get(component)
                .map(|&(busy, _)| busy)
                .unwrap_or(0);
            assert_eq!(
                counters.busy_ns(cat),
                util_busy,
                "{} on {route:?} route: trace '{cat}' vs util '{component}'",
                query.name
            );
        }
    }
}

/// Q6 on a 4-device array with hedging on and device 2 eight times slow,
/// built by `builder` (which attaches the sink, if any). Returns the report
/// and each device's CPU busy time.
fn gray_fleet_run(builder: SystemBuilder) -> (RunReport, Vec<u64>) {
    let mut fleet = builder.devices(4).hedge(HedgePolicy::default()).build();
    fleet
        .load_partitioned(
            queries::LINEITEM,
            &tpch::lineitem_schema(),
            tpch::lineitem_rows(SF, SEED),
        )
        .unwrap();
    fleet.finish_load();
    let forever = SimTime::from_secs(3600);
    fleet.arm_fault_plan(&FaultPlan::new().slowdown(2, 8, SimTime::ZERO, forever));
    let rep = fleet.run(&q6(), RunOptions::routed(Route::Device)).unwrap();
    let busy = (0..4).map(|d| fleet.device(d).cpu().busy_total_ns());
    (rep, busy.collect())
}

/// Fleet devices report to the system's tracer. One thread drives them
/// all, so the trace is byte-identical build to build; attaching a sink
/// moves no simulated figure; and the device-CPU counter is the sum over
/// the devices' own CPUs.
#[test]
fn fleet_devices_are_traced_deterministically_without_perturbing_the_run() {
    let builder = || SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax);
    let (plain, plain_busy) = gray_fleet_run(builder());
    assert!(plain.faults.hedges >= 1, "the slow device is hedged");
    let (counted, busy) = gray_fleet_run(builder().trace(CounterSink::new()));
    let (chrome, _) = gray_fleet_run(builder().trace(ChromeTraceSink::new()));
    let (again, _) = gray_fleet_run(builder().trace(ChromeTraceSink::new()));
    let json = chrome.trace.chrome_json().expect("chrome trace present");
    assert_eq!(
        Some(json),
        again.trace.chrome_json(),
        "chrome trace differs"
    );
    for traced in [&counted, &chrome] {
        assert_eq!(traced.result.elapsed, plain.result.elapsed);
        assert_eq!(traced.result.agg_values, plain.result.agg_values);
        assert_eq!(
            format!("{:?}", traced.shards),
            format!("{:?}", plain.shards)
        );
        assert_eq!(traced.faults, plain.faults);
    }
    assert_eq!(busy, plain_busy);
    let counters = counted.trace.counters().expect("counter trace present");
    let device_cpu = counters.busy_ns("device-cpu");
    assert!(device_cpu > 0, "fleet devices report to the tracer");
    assert_eq!(device_cpu, busy.iter().sum::<u64>());
}

/// `effective_mbps` signals an unmeasurable (zero-length) run with `None`
/// instead of a fake bandwidth figure.
#[test]
fn effective_mbps_is_optional() {
    let rep = counter_run(DeviceKind::SmartSsd, Layout::Pax, &q6(), Route::Device);
    let mbps = rep
        .effective_mbps(1_000_000)
        .expect("real run has bandwidth");
    assert!(mbps > 0.0);
}
