//! Every cause EXPERIMENTS.md gives for a figure, asserted from the run's
//! own counters: the component `UtilizationReport::bottleneck` names, and
//! how busy it was. A cause stated in prose and contradicted by the
//! counters is a wrong sentence in EXPERIMENTS.md, not a wrong test.
//!
//! The tables are small (half of `repro --quick`'s LINEITEM), so each case
//! asserts the component and a utilization floor below the full-scale
//! reading.

use smartssd::{DeviceKind, Layout, Query, Route, RunOptions, RunReport, System, SystemBuilder};
use smartssd_host::InterfaceKind;
use smartssd_workload::{
    join_query, q14, q6, queries, scan_sweep, synthetic::synthetic_schema, synthetic64_r,
    synthetic64_s, tpch,
};

const SF: f64 = 0.005; // 30k LINEITEM rows
const SYNTH: f64 = 0.0001; // 40k S rows, 100 R rows
const SEED: u64 = 7;

/// The paper's regular SSD: NSM pages, host execution.
fn ssd() -> SystemBuilder {
    SystemBuilder::new(DeviceKind::Ssd, Layout::Nsm)
}

/// The paper's Smart SSD with PAX pages.
fn smart() -> SystemBuilder {
    SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
}

/// `b` with LINEITEM and PART loaded, cold.
fn tpch(b: SystemBuilder) -> System {
    let mut sys = b.build();
    let li = tpch::lineitem_rows(SF, SEED);
    sys.load_table_rows(queries::LINEITEM, &tpch::lineitem_schema(), li)
        .unwrap();
    let part = tpch::part_rows(SF, SEED);
    sys.load_table_rows(queries::PART, &tpch::part_schema(), part)
        .unwrap();
    sys.finish_load();
    sys
}

/// `b` with the synthetic join's R and S loaded, cold.
fn synth(b: SystemBuilder) -> System {
    let mut sys = b.build();
    let r = synthetic64_r(SYNTH, SEED);
    sys.load_table_rows(queries::SYNTH_R, &synthetic_schema(), r)
        .unwrap();
    let s = synthetic64_s(SYNTH, SYNTH, SEED);
    sys.load_table_rows(queries::SYNTH_S, &synthetic_schema(), s)
        .unwrap();
    sys.finish_load();
    sys
}

/// Runs `query` on `sys` cold, on the device route on a Smart SSD and the
/// host route on a regular SSD.
fn run(mut sys: System, query: &Query) -> RunReport {
    let route = match sys.config().device {
        DeviceKind::SmartSsd => Route::Device,
        _ => Route::Host,
    };
    let rep = sys.run(query, RunOptions::routed(route)).unwrap();
    assert_eq!(rep.route, route);
    rep
}

/// Asserts that `component` is the run's bottleneck, at least `floor` busy.
#[track_caller]
fn assert_bound(rep: &RunReport, component: &str, floor: f64, what: &str) {
    let (name, util) = rep.util.bottleneck().expect("a metered run");
    println!("{what}: {name} {util:.2}");
    assert_eq!(name, component, "{what}: util report: {}", rep.util);
    assert!(
        util >= floor,
        "{what}: {name} only {util:.2} busy: {}",
        rep.util
    );
}

/// Figure 3: Q6 on the PAX Smart SSD reaches 1.7x, not Table 2's 2.8x,
/// because the embedded CPU saturates (Section 4.2.1).
#[test]
fn fig3_q6_device_run_is_bound_on_the_device_cpu() {
    let rep = run(tpch(smart()), &q6());
    assert_bound(&rep, "device-cpu", 0.9, "Fig 3 Q6/PAX");
}

/// Table 2: the internal path is the serialized flash DRAM bus. With four
/// times the paper's cores, the CPU no longer limits Q6 and the bus does.
#[test]
fn table2_internal_path_binds_a_device_whose_cores_are_not_the_limit() {
    let more_cores = smart().tweak(|cfg| cfg.smart.cpu_cores = 8);
    let rep = run(tpch(more_cores), &q6());
    assert_bound(&rep, "io-device", 0.9, "Q6 on 8 x 400 MHz");
    let cpu = rep.util.utilization("device-cpu").unwrap();
    assert!(cpu < 0.5, "device-cpu {cpu:.2} on 8 cores");
}

/// Figure 5 at 1 %: the pushed-down join reaches the internal-bandwidth
/// bound, while the host route waits on the link.
#[test]
fn fig5_join_at_one_percent_is_bound_on_the_internal_path() {
    let dev = run(synth(smart()), &join_query(0.01));
    assert_bound(&dev, "io-device", 0.9, "Fig 5 join @1% device");
    let host = run(synth(ssd()), &join_query(0.01));
    assert_bound(&host, "host-interface", 0.9, "Fig 5 join @1% host");
}

/// The scan sweep's row-returning scan at 100 %: the host route is bound
/// on the link, the device route on its CPU, so the two nearly meet.
#[test]
fn scan_sweep_returning_every_row_binds_the_link_and_the_device_cpu() {
    let query = scan_sweep(1.0, false, 4);
    let host = run(synth(ssd()), &query);
    assert_bound(&host, "host-interface", 0.9, "rows @100% host");
    let dev = run(synth(smart()), &query);
    assert_bound(&dev, "device-cpu", 0.8, "rows @100% device");
    let link = dev.util.utilization("host-interface").unwrap();
    assert!(link < 0.2, "device route's link {link:.2}");
}

/// Figure 7: Q14 gains less than Q6 because every LINEITEM tuple probes
/// PART's hash table in the device, so the embedded CPU binds.
#[test]
fn fig7_q14_device_run_is_bound_on_the_device_cpu() {
    let rep = run(tpch(smart()), &q14());
    assert_bound(&rep, "device-cpu", 0.85, "Fig 7 Q14/PAX");
}

/// The interface knee: the host route of the 1 % join waits on the link
/// up to SAS 6G, and from SAS 12G on on its one scan thread, which is
/// why pushdown's advantage stops shrinking there.
#[test]
fn the_host_route_leaves_the_link_for_its_cpu_from_sas12_on() {
    for (interface, component) in [
        (InterfaceKind::Sas3, "host-interface"),
        (InterfaceKind::Sas6, "host-interface"),
        (InterfaceKind::Sas12, "host-cpu-thread"),
        (InterfaceKind::PcieGen2x4, "host-cpu-thread"),
        (InterfaceKind::PcieGen3x4, "host-cpu-thread"),
    ] {
        let rep = run(synth(ssd().interface(interface)), &join_query(0.01));
        assert_bound(&rep, component, 0.9, &format!("join @1% on {interface:?}"));
    }
}

/// The paper's host scans on one thread and is bound by it; from two
/// threads on, Q6 on the SAS SSD waits on the link, so more threads buy
/// nothing. The host CPU is metered over the run's threads: on one lane
/// it would read 100 % busy and hide the link.
#[test]
fn a_parallel_host_scan_is_bound_on_the_link() {
    let serial = run(tpch(ssd()), &q6());
    assert_bound(&serial, "host-cpu-thread", 0.9, "Q6 at host DOP 1");
    for dop in [2, 4, 8] {
        let rep = run(tpch(ssd().host_dop(dop)), &q6());
        assert_bound(
            &rep,
            "host-interface",
            0.9,
            &format!("Q6 at host DOP {dop}"),
        );
        let cpu = rep.util.utilization("host-cpu-thread").unwrap();
        assert!(cpu < 0.9, "host DOP {dop}: host-cpu-thread {cpu:.2}");
    }
}
