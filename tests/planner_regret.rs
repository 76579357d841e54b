//! Planner regret on the published cells: for every cell, both forced
//! routes run cold (after the cell's cache warm-up) and so does the planned
//! route. The planned route must be the faster one, or within [`EPSILON`]
//! of it, and the planner's estimate of the route it chose, read from its
//! trace instant, must be within [`ESTIMATE_BAND`] of the run's simulated
//! elapsed time. The planned run must also be the forced run of its route
//! exactly: the same elapsed time, work receipt and flash reads, since the
//! planner's sample of the input is read untimed. A failing test prints
//! every cell that missed, with both routes' times.
//!
//! The cells are the `repro` figures at quick scale on a Smart SSD in both
//! layouts (Figure 3's Q6, Figure 7's Q14, Q1, Figure 5's join at five
//! selectivities, the scan sweep), `cache`'s five residencies,
//! `codesign`'s five device profiles, a slow device, a four-thread host, a
//! slower device whose best route flips when the table is cached, arrays
//! of 4 and 16 devices, and Q14 and Q1 on a 4-device array. Run with
//! `--nocapture` to print every cell's regret and estimate error.

use smartssd::{
    DeviceKind, Layout, Route, RoutePolicy, RunOptions, System, SystemBuilder, SystemConfig,
    Workload, WorkloadItem, WorkloadOptions,
};
use smartssd_exec::WorkCounts;
use smartssd_query::Query;
use smartssd_sim::{ChromeTraceSink, SimTime, TraceLevel};
use smartssd_storage::{TableBuilder, TableImage};
use smartssd_workload::synthetic::synthetic_schema;
use smartssd_workload::{
    join_query, q1, q14, q6, queries, scan_sweep, synthetic64_r, synthetic64_s, tpch,
};
use std::sync::{Arc, Mutex};

/// How much slower than the faster route the planned route may be.
const EPSILON: f64 = 0.05;

/// How far, in percent either way, the planner's estimate of its chosen
/// route may be from that route's simulated elapsed time. The widest cell
/// is Q14 on a 4-device array (about -19 %): its build and probe phases
/// run one after the other, while the estimate overlaps every read with
/// all of the work.
const ESTIMATE_BAND: f64 = 20.0;

/// `repro --quick`'s scales and seed.
const TPCH_SF: f64 = 0.01;
const SYNTH_SCALE: f64 = 0.0001;
const SEED: u64 = 42;

#[derive(Clone, Copy)]
enum Tables {
    /// LINEITEM and PART.
    Tpch,
    /// LINEITEM only (`codesign`'s Q6 systems).
    Lineitem,
    /// The synthetic join's R and S.
    Synth,
}

/// Every table image built in this test binary, by name and layout.
type Images = Vec<((&'static str, Layout), Arc<TableImage>)>;
static IMAGES: Mutex<Images> = Mutex::new(Vec::new());

fn image(name: &'static str, layout: Layout) -> Arc<TableImage> {
    let mut images = IMAGES.lock().unwrap();
    if let Some((_, img)) = images.iter().find(|(k, _)| *k == (name, layout)) {
        return Arc::clone(img);
    }
    let (schema, rows): (_, Box<dyn Iterator<Item = _>>) = match name {
        queries::LINEITEM => (
            tpch::lineitem_schema(),
            Box::new(tpch::lineitem_rows(TPCH_SF, SEED)),
        ),
        queries::PART => (
            tpch::part_schema(),
            Box::new(tpch::part_rows(TPCH_SF, SEED)),
        ),
        queries::SYNTH_R => (
            synthetic_schema(),
            Box::new(synthetic64_r(SYNTH_SCALE, SEED)),
        ),
        _ => (
            synthetic_schema(),
            Box::new(synthetic64_s(SYNTH_SCALE, SYNTH_SCALE, SEED)),
        ),
    };
    let mut b = TableBuilder::new(name, schema, layout);
    b.extend(rows);
    let img = Arc::new(b.finish());
    images.push(((name, layout), Arc::clone(&img)));
    img
}

/// A system built from `b` with a trace sink attached, so a planned run
/// traced at `Protocol` level carries the planner's instant.
fn build(b: SystemBuilder) -> System {
    b.trace(ChromeTraceSink::new()).build()
}

/// A cold system built from `b` with `tables` loaded.
fn system(b: SystemBuilder, tables: Tables) -> System {
    let mut sys = build(b);
    let layout = sys.config().layout;
    let names: &[&'static str] = match tables {
        Tables::Tpch => &[queries::LINEITEM, queries::PART],
        Tables::Lineitem => &[queries::LINEITEM],
        Tables::Synth => &[queries::SYNTH_R, queries::SYNTH_S],
    };
    for &name in names {
        sys.load_table(name, &image(name, layout)).unwrap();
    }
    sys.finish_load();
    sys
}

fn smart(layout: Layout) -> SystemBuilder {
    SystemBuilder::new(DeviceKind::SmartSsd, layout)
}

/// A Smart SSD (PAX) with `cores` embedded cores at `mhz`.
fn device(cores: usize, mhz: u64) -> SystemBuilder {
    smart(Layout::Pax).tweak(|cfg: &mut SystemConfig| {
        cfg.smart.cpu_cores = cores;
        cfg.smart.cpu_hz = mhz * 1_000_000;
    })
}

/// One cell's run: its route, simulated elapsed time, work receipt, flash
/// reads on every device and, when the planner traced it, its estimate of
/// the route it chose.
struct Cell {
    route: Route,
    secs: f64,
    work: WorkCounts,
    reads: u64,
    estimate: Option<f64>,
}

/// Flash page reads of the last run, summed over every device.
fn flash_reads(sys: &System) -> u64 {
    let devices = sys.config().devices;
    (0..devices)
        .map(|d| sys.device(d).flash.stats().reads)
        .sum()
}

/// The number after `"key":` in a Chrome trace.
fn trace_arg(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    json[at..].split([',', '}']).next()?.parse().ok()
}

/// Runs one cell's three routes, each on a cleared pool warmed to
/// `resident` of the input table, and returns a line describing the miss
/// if the planned route is more than [`EPSILON`] slower than the best, or
/// its estimate is outside [`ESTIMATE_BAND`].
fn regret(sys: &mut System, label: &str, query: &Query, resident: f64) -> Option<String> {
    let input = query.op.tables().next().unwrap().clone();
    let mut run = |opts: RunOptions| {
        sys.clear_cache();
        sys.warm_cache(&input, resident).unwrap();
        let rep = sys.run(query, opts).unwrap();
        let estimate_of = match rep.route {
            Route::Device => "device_secs",
            Route::Host => "host_secs",
        };
        Cell {
            route: rep.route,
            secs: rep.result.elapsed.as_secs_f64(),
            work: rep.result.work,
            reads: flash_reads(sys),
            estimate: rep
                .trace
                .chrome_json()
                .and_then(|j| trace_arg(j, estimate_of)),
        }
    };
    let quiet = |route| RunOptions {
        verbosity: TraceLevel::Off,
        ..RunOptions::routed(route)
    };
    let device = run(quiet(Route::Device));
    let host = run(quiet(Route::Host));
    let planned = run(RunOptions {
        verbosity: TraceLevel::Protocol,
        ..RunOptions::planned()
    });
    let forced = match planned.route {
        Route::Device => &device,
        Route::Host => &host,
    };
    // The sample is read untimed and uncounted: the planned run is the
    // forced run of its route.
    assert_eq!(
        planned.secs, forced.secs,
        "{label}: planned run differs from forced"
    );
    assert_eq!(
        planned.work, forced.work,
        "{label}: planned receipt differs"
    );
    assert_eq!(
        planned.reads, forced.reads,
        "{label}: planned flash reads differ"
    );
    let estimate = planned.estimate.expect("a planned run traces its estimate");
    let error = (estimate / planned.secs - 1.0) * 100.0;
    let best = device.secs.min(host.secs);
    let line = format!(
        "{label}: planned {:?} {:.4} s, device {:.4} s, host {:.4} s \
         (regret {:.1} %, estimate {estimate:.4} s, error {error:+.1} %)",
        planned.route,
        planned.secs,
        device.secs,
        host.secs,
        (planned.secs / best - 1.0) * 100.0
    );
    // Every cell's line, shown with `--nocapture`.
    println!("{line}");
    let missed = planned.secs > best * (1.0 + EPSILON) || error.abs() > ESTIMATE_BAND;
    missed.then_some(line)
}

fn assert_no_regret(misses: Vec<Option<String>>) {
    let misses: Vec<String> = misses.into_iter().flatten().collect();
    assert!(misses.is_empty(), "planner regret:\n{}", misses.join("\n"));
}

const LAYOUTS: [(Layout, &str); 2] = [(Layout::Nsm, "NSM"), (Layout::Pax, "PAX")];

#[test]
fn tpch_figures() {
    let mut misses = Vec::new();
    for (layout, name) in LAYOUTS {
        let mut sys = system(smart(layout), Tables::Tpch);
        for (label, query) in [("fig3 Q6", q6()), ("fig7 Q14", q14()), ("q1", q1())] {
            misses.push(regret(&mut sys, &format!("{name} {label}"), &query, 0.0));
        }
    }
    assert_no_regret(misses);
}

#[test]
fn fig5_join() {
    let mut misses = Vec::new();
    for (layout, name) in LAYOUTS {
        let mut sys = system(smart(layout), Tables::Synth);
        for sel in [0.01, 0.10, 0.25, 0.50, 1.00] {
            let label = format!("{name} fig5 join {}%", sel * 100.0);
            misses.push(regret(&mut sys, &label, &join_query(sel), 0.0));
        }
    }
    assert_no_regret(misses);
}

#[test]
fn scan_sweep_cells() {
    let mut misses = Vec::new();
    for (layout, name) in LAYOUTS {
        let mut sys = system(smart(layout), Tables::Synth);
        for (with_agg, mode) in [(false, "rows"), (true, "agg")] {
            for sel in [0.001, 0.01, 0.10, 1.00] {
                let label = format!("{name} scan-sweep {mode} {}%", sel * 100.0);
                let query = scan_sweep(sel, with_agg, 4);
                misses.push(regret(&mut sys, &label, &query, 0.0));
            }
        }
    }
    assert_no_regret(misses);
}

#[test]
fn cache_residencies() {
    let mut sys = system(smart(Layout::Pax), Tables::Tpch);
    let misses = [0.0, 0.25, 0.5, 0.75, 1.0].map(|resident| {
        let label = format!("cache Q6 {}% resident", resident * 100.0);
        regret(&mut sys, &label, &q6(), resident)
    });
    assert_no_regret(misses.into());
}

#[test]
fn device_and_host_machines() {
    // `codesign`'s device profiles (cores, MHz, channels, channel MB/s,
    // DRAM MB/s).
    let configs: [(usize, u64, usize, u64, u64); 5] = [
        (2, 400, 8, 400, 1_600),
        (8, 400, 8, 400, 1_600),
        (8, 1_000, 8, 400, 1_600),
        (8, 1_000, 16, 800, 6_400),
        (16, 1_600, 32, 800, 12_800),
    ];
    let mut misses = Vec::new();
    for (cores, mhz, channels, ch_mbps, dram_mbps) in configs {
        let b = device(cores, mhz).tweak(|cfg| {
            cfg.flash.channels = channels;
            cfg.flash.channel_bw = ch_mbps * 1_000_000;
            cfg.flash.dram_bw = dram_mbps * 1_000_000;
        });
        let label = format!("codesign {cores}x{mhz} MHz, {dram_mbps} MB/s DRAM");
        misses.push(regret(&mut system(b, Tables::Lineitem), &label, &q6(), 0.0));
    }
    let slow = device(1, 200);
    misses.push(regret(
        &mut system(slow, Tables::Lineitem),
        "1x200 MHz Q6",
        &q6(),
        0.0,
    ));
    let mut sys = system(smart(Layout::Pax).host_dop(4), Tables::Tpch);
    misses.push(regret(&mut sys, "host_dop 4 Q6", &q6(), 0.0));
    assert_no_regret(misses);
}

/// A 1x300 MHz device: the aggregating 1 % scan is faster on the device
/// while the table is cold and on the host once it is cached.
#[test]
fn slow_device_residency_flip() {
    let mut sys = system(device(1, 300), Tables::Synth);
    let query = scan_sweep(0.01, true, 4);
    let misses = [0.0, 1.0].map(|resident| {
        let label = format!("1x300 MHz scan-sweep agg 1% {}% resident", resident * 100.0);
        regret(&mut sys, &label, &query, resident)
    });
    assert_no_regret(misses.into());
}

/// Arrays of 4 and 16 devices running `repro array`'s Q6 over a
/// partitioned LINEITEM, cold and cached: each device runs its share while
/// one host link and one host CPU serve every share.
#[test]
fn arrays() {
    let mut misses = Vec::new();
    for (cores, mhz) in [(2, 400), (1, 200)] {
        for n in [4, 16] {
            let mut sys = build(device(cores, mhz).devices(n));
            let rows = tpch::lineitem_rows(TPCH_SF, SEED);
            let schema = tpch::lineitem_schema();
            sys.load_partitioned(queries::LINEITEM, &schema, rows)
                .unwrap();
            sys.finish_load();
            for resident in [0.0, 1.0] {
                let label = format!(
                    "{n} x {cores}x{mhz} MHz array Q6 {}% resident",
                    resident * 100.0
                );
                misses.push(regret(&mut sys, &label, &q6(), resident));
            }
        }
    }
    assert_no_regret(misses);
}

/// Figure 7's Q14 and Q1 on a 4-device array in both layouts: LINEITEM
/// partitioned, PART whole on every device, so each device (and each
/// shard's host pass) builds on the whole PART and probes its LINEITEM
/// share.
#[test]
fn array_join_and_group_by() {
    let mut misses = Vec::new();
    for (layout, name) in LAYOUTS {
        let mut sys = build(smart(layout).devices(4));
        let rows = tpch::lineitem_rows(TPCH_SF, SEED);
        let schema = tpch::lineitem_schema();
        sys.load_partitioned(queries::LINEITEM, &schema, rows)
            .unwrap();
        sys.load_table(queries::PART, &image(queries::PART, layout))
            .unwrap();
        sys.finish_load();
        for (label, query) in [("Q14", q14()), ("Q1", q1())] {
            let label = format!("{name} 4-device array {label}");
            misses.push(regret(&mut sys, &label, &query, 0.0));
        }
    }
    assert_no_regret(misses);
}

/// A planned stream is the forced stream of its route: the planner's
/// sample, taken once per run, reads no flash, rides no shared scan and
/// touches no buffer pool, so every counter and every completion match.
#[test]
fn planned_stream_is_invisible() {
    let mut sys = system(smart(Layout::Pax).shared_scans(true), Tables::Lineitem);
    let stream = Workload::open_stream(&q6(), 12, SimTime::from_millis(1), SEED);
    let mut run = |route: RoutePolicy| {
        let mut w = Workload::new();
        for item in stream.items() {
            w.push_item(WorkloadItem {
                route,
                ..item.clone()
            });
        }
        sys.clear_cache();
        sys.run_workload(&w, WorkloadOptions::new()).unwrap()
    };
    let planned = run(RoutePolicy::Planned);
    let forced = run(RoutePolicy::Force(Route::Device));
    assert!(forced.shared_hits > 0, "the stream shares no scan");
    let counters = |r: &smartssd::WorkloadReport| {
        (
            r.flash_reads,
            r.shared_hits,
            r.pool_hits,
            r.pool_misses,
            r.makespan,
        )
    };
    assert_eq!(counters(&planned), counters(&forced));
    assert_eq!(planned.completions.len(), forced.completions.len());
    for (p, f) in planned.completions.iter().zip(&forced.completions) {
        assert_eq!(p.route, Route::Device);
        assert_eq!((p.latency, p.result.work), (f.latency, f.result.work));
    }
}
