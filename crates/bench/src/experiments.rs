//! One function per paper artifact.

use crate::scale::Scales;
use smartssd::{
    compose, ArrivalModel, ChromeTraceSink, CounterSink, DeviceKind, InterfaceMode, RunError,
    RunOptions, RunReport, System, SystemBuilder, SystemConfig, TenantLoad, TenantSpec, TraceSink,
    Workload, WorkloadOptions, WorkloadReport,
};
use smartssd_host::interface::{roadmap, RoadmapPoint};
use smartssd_query::{PlannerConfig, PlannerInputs, Query, Route};
use smartssd_sim::SimTime;
use smartssd_storage::{Layout, PAGE_SIZE};
use smartssd_workload::{
    join_query, q1, q14, q6, queries, synthetic::synthetic_schema, synthetic64_r, synthetic64_s,
    tpch,
};

/// Loads LINEITEM and PART into a freshly built system, cold.
fn load_tpch(mut sys: System, s: &Scales) -> System {
    sys.load_table_rows(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(s.tpch_sf, s.seed),
    )
    .expect("load lineitem");
    sys.load_table_rows(
        queries::PART,
        &tpch::part_schema(),
        tpch::part_rows(s.tpch_sf, s.seed),
    )
    .expect("load part");
    sys.finish_load();
    sys
}

/// Builds a system with LINEITEM (and PART) loaded, cold.
pub fn tpch_system(kind: DeviceKind, layout: Layout, s: &Scales) -> System {
    load_tpch(SystemBuilder::new(kind, layout).build(), s)
}

/// [`tpch_system`] with a trace sink attached at build time.
pub fn tpch_system_traced(
    kind: DeviceKind,
    layout: Layout,
    s: &Scales,
    sink: impl TraceSink + 'static,
) -> System {
    load_tpch(SystemBuilder::new(kind, layout).trace(sink).build(), s)
}

/// Builds a system with the synthetic join tables loaded, cold.
pub fn synth_system(kind: DeviceKind, layout: Layout, s: &Scales) -> System {
    let mut sys = SystemBuilder::new(kind, layout).build();
    sys.load_table_rows(
        queries::SYNTH_R,
        &synthetic_schema(),
        synthetic64_r(s.synth_scale, s.seed),
    )
    .expect("load R");
    sys.load_table_rows(
        queries::SYNTH_S,
        &synthetic_schema(),
        synthetic64_s(s.synth_scale, s.synth_scale, s.seed),
    )
    .expect("load S");
    sys.finish_load();
    sys
}

/// Figure 1: host-interface vs SSD-internal bandwidth trend.
pub fn fig1() -> Vec<RoadmapPoint> {
    roadmap()
}

/// Table 2 result: achieved sequential read bandwidth, MB/s.
#[derive(Debug, Clone, Copy)]
pub struct Tab2 {
    /// External path (SAS SSD through the host interface).
    pub external_mbps: f64,
    /// Internal path (Smart SSD reading to its own DRAM).
    pub internal_mbps: f64,
}

impl Tab2 {
    /// Internal / external — the paper's 2.8x headroom.
    pub fn ratio(&self) -> f64 {
        self.internal_mbps / self.external_mbps
    }
}

/// Table 2: maximum sequential read bandwidth with 32-page (256 KB) I/Os.
pub fn tab2() -> Tab2 {
    use smartssd_flash::{FlashConfig, FlashSsd};
    use smartssd_host::{InterfaceKind, PageSource, SsdHostPath};
    let n: u64 = 8192;
    // A real formatted page so the host path's validation passes.
    let page = {
        let schema =
            smartssd_storage::Schema::from_pairs(&[("x", smartssd_storage::DataType::Int64)]);
        let mut b = smartssd_storage::TableBuilder::new("t", schema, Layout::Nsm);
        b.extend((0..1i64).map(|v| vec![smartssd_storage::Datum::I64(v)]));
        b.finish().pages()[0].clone()
    };
    // Internal: read pages straight into device DRAM.
    let mut ssd = FlashSsd::new(FlashConfig::default());
    for lba in 0..n {
        ssd.write(lba, page.raw().clone(), SimTime::ZERO).unwrap();
    }
    ssd.reset_timing();
    let mut done = SimTime::ZERO;
    for lba in 0..n {
        done = done.max(ssd.read(lba, SimTime::ZERO).unwrap().1.end);
    }
    let internal = (n * PAGE_SIZE as u64) as f64 / done.as_secs_f64() / 1e6;
    // External: same device behind the SAS link.
    let mut ssd2 = FlashSsd::new(FlashConfig::default());
    for lba in 0..n {
        ssd2.write(lba, page.raw().clone(), SimTime::ZERO).unwrap();
    }
    ssd2.reset_timing();
    let mut path = SsdHostPath::new(ssd2, InterfaceKind::Sas6, 0);
    let mut done = SimTime::ZERO;
    for lba in 0..n {
        done = done.max(path.read_page(lba, SimTime::ZERO).unwrap().1);
    }
    let external = (n * PAGE_SIZE as u64) as f64 / done.as_secs_f64() / 1e6;
    Tab2 {
        external_mbps: external,
        internal_mbps: internal,
    }
}

/// Elapsed-time bars for a three-configuration figure (SSD baseline,
/// Smart SSD NSM, Smart SSD PAX).
#[derive(Debug, Clone)]
pub struct Bars {
    /// Regular SSD, host execution, NSM layout.
    pub ssd: RunReport,
    /// Smart SSD pushdown on NSM pages.
    pub smart_nsm: RunReport,
    /// Smart SSD pushdown on PAX pages.
    pub smart_pax: RunReport,
}

impl Bars {
    /// Elapsed seconds in figure order.
    pub fn seconds(&self) -> [f64; 3] {
        [
            self.ssd.result.elapsed.as_secs_f64(),
            self.smart_nsm.result.elapsed.as_secs_f64(),
            self.smart_pax.result.elapsed.as_secs_f64(),
        ]
    }

    /// The paper's headline: SSD time over Smart-SSD-PAX time.
    pub fn speedup_pax(&self) -> f64 {
        self.seconds()[0] / self.seconds()[2]
    }

    /// SSD time over Smart-SSD-NSM time.
    pub fn speedup_nsm(&self) -> f64 {
        self.seconds()[0] / self.seconds()[1]
    }
}

/// Runs one query on the figure's three configurations.
fn three_bars<F>(build: F, query: &Query) -> Bars
where
    F: Fn(DeviceKind, Layout) -> System,
{
    let mut ssd_sys = build(DeviceKind::Ssd, Layout::Nsm);
    let ssd = ssd_sys.run(query, RunOptions::default()).expect("ssd run");
    let mut nsm_sys = build(DeviceKind::SmartSsd, Layout::Nsm);
    let smart_nsm = nsm_sys
        .run(query, RunOptions::default())
        .expect("smart nsm run");
    let mut pax_sys = build(DeviceKind::SmartSsd, Layout::Pax);
    let smart_pax = pax_sys
        .run(query, RunOptions::default())
        .expect("smart pax run");
    Bars {
        ssd,
        smart_nsm,
        smart_pax,
    }
}

/// Figure 3: TPC-H Q6 elapsed time (paper: PAX 1.7x over the SSD).
pub fn fig3(s: &Scales) -> Bars {
    three_bars(|k, l| tpch_system(k, l, s), &q6())
}

/// Figure 7: TPC-H Q14 elapsed time (paper: PAX 1.3x over the SSD).
pub fn fig7(s: &Scales) -> Bars {
    three_bars(|k, l| tpch_system(k, l, s), &q14())
}

/// One selectivity point of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Predicate selectivity (fraction of S rows qualifying).
    pub selectivity: f64,
    /// The three bars at this selectivity.
    pub bars: Bars,
}

/// Figure 5: the selection-with-join query swept over selectivity
/// (paper: up to 2.2x at 1%, saturating toward 1x at 100%).
pub fn fig5(s: &Scales, selectivities: &[f64]) -> Vec<Fig5Point> {
    // Build each system once and reuse it across the sweep: only the
    // predicate literal changes.
    let mut ssd_sys = synth_system(DeviceKind::Ssd, Layout::Nsm, s);
    let mut nsm_sys = synth_system(DeviceKind::SmartSsd, Layout::Nsm, s);
    let mut pax_sys = synth_system(DeviceKind::SmartSsd, Layout::Pax, s);
    selectivities
        .iter()
        .map(|&sel| {
            let query = join_query(sel);
            // The paper's protocol is cold: nothing cached between runs.
            ssd_sys.clear_cache();
            nsm_sys.clear_cache();
            pax_sys.clear_cache();
            Fig5Point {
                selectivity: sel,
                bars: Bars {
                    ssd: ssd_sys.run(&query, RunOptions::default()).expect("ssd run"),
                    smart_nsm: nsm_sys.run(&query, RunOptions::default()).expect("nsm run"),
                    smart_pax: pax_sys.run(&query, RunOptions::default()).expect("pax run"),
                },
            }
        })
        .collect()
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Tab3Row {
    /// Configuration label, as in the paper's column heads.
    pub config: String,
    /// The full run report.
    pub report: RunReport,
}

/// Table 3: elapsed time and energy for TPC-H Q6 on all four
/// configurations.
pub fn tab3(s: &Scales) -> Vec<Tab3Row> {
    let query = q6();
    let configs: [(DeviceKind, Layout, &str); 4] = [
        (DeviceKind::Hdd, Layout::Nsm, "SAS HDD"),
        (DeviceKind::Ssd, Layout::Nsm, "SAS SSD"),
        (DeviceKind::SmartSsd, Layout::Nsm, "Smart SSD (NSM)"),
        (DeviceKind::SmartSsd, Layout::Pax, "Smart SSD (PAX)"),
    ];
    configs
        .iter()
        .map(|&(kind, layout, label)| {
            let mut sys = tpch_system(kind, layout, s);
            Tab3Row {
                config: label.into(),
                report: sys.run(&query, RunOptions::default()).expect("tab3 run"),
            }
        })
        .collect()
}

/// The plan diagrams of Figures 4 and 6, as text.
pub fn plans() -> String {
    format!(
        "{}\n{}\n{}",
        join_query(0.01).describe_pushdown(),
        q14().describe_pushdown(),
        q6().describe_pushdown()
    )
}

/// One point of the companion-paper scan sweep.
#[derive(Debug, Clone)]
pub struct ScanSweepPoint {
    /// Predicate selectivity.
    pub selectivity: f64,
    /// Whether the scan aggregates (vs returning rows).
    pub with_agg: bool,
    /// The three bars.
    pub bars: Bars,
}

/// The companion paper \[7\]'s single-table-scan sweeps: selectivity x
/// {row-returning, aggregating}.
pub fn scan_sweep_exp(s: &Scales, selectivities: &[f64]) -> Vec<ScanSweepPoint> {
    let mut out = Vec::new();
    let mut ssd_sys = synth_system(DeviceKind::Ssd, Layout::Nsm, s);
    let mut nsm_sys = synth_system(DeviceKind::SmartSsd, Layout::Nsm, s);
    let mut pax_sys = synth_system(DeviceKind::SmartSsd, Layout::Pax, s);
    for &with_agg in &[false, true] {
        for &sel in selectivities {
            let query = smartssd_workload::scan_sweep(sel, with_agg, 4);
            ssd_sys.clear_cache();
            nsm_sys.clear_cache();
            pax_sys.clear_cache();
            out.push(ScanSweepPoint {
                selectivity: sel,
                with_agg,
                bars: Bars {
                    ssd: ssd_sys.run(&query, RunOptions::default()).expect("ssd"),
                    smart_nsm: nsm_sys.run(&query, RunOptions::default()).expect("nsm"),
                    smart_pax: pax_sys.run(&query, RunOptions::default()).expect("pax"),
                },
            });
        }
    }
    out
}

/// One point of the Smart SSD array scaling experiment.
#[derive(Debug, Clone)]
pub struct ArrayPoint {
    /// Number of devices.
    pub devices: usize,
    /// Coordinator completion time.
    pub elapsed: SimTime,
}

/// Discussion-section extension: Q6-shaped aggregation over a LINEITEM
/// partitioned across an array of Smart SSDs — a fleet whose sessions open
/// in place at time zero (`InterfaceMode::Direct`), the minimal coordinator
/// the paper sketches.
pub fn array_exp(s: &Scales, device_counts: &[usize]) -> Vec<ArrayPoint> {
    use smartssd::{FleetOptions, InterfaceMode, SmartSsdFleet};
    device_counts
        .iter()
        .map(|&n| {
            let mut arr = SmartSsdFleet::with_options(
                n,
                SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax),
                FleetOptions {
                    interface: InterfaceMode::Direct,
                    ..FleetOptions::default()
                },
            );
            arr.load_partitioned(
                queries::LINEITEM,
                &tpch::lineitem_schema(),
                tpch::lineitem_rows(s.tpch_sf, s.seed),
            )
            .expect("load");
            arr.finish_load();
            let r = arr.run_agg(&q6()).expect("array q6");
            ArrayPoint {
                devices: n,
                elapsed: r.result.elapsed,
            }
        })
        .collect()
}

/// One point of the buffer-pool residency experiment.
#[derive(Debug, Clone)]
pub struct CachePoint {
    /// Fraction of LINEITEM pre-cached in the buffer pool.
    pub resident: f64,
    /// Route the planner chose.
    pub route: Route,
    /// Elapsed time of the run.
    pub elapsed: SimTime,
}

/// Discussion-section extension: Q6 on the Smart SSD with 0..100% of
/// LINEITEM pre-cached; the planner should stop pushing down once enough of
/// the table is resident.
pub fn cache_exp(s: &Scales, fractions: &[f64]) -> Vec<CachePoint> {
    let planner = PlannerConfig::default();
    fractions
        .iter()
        .map(|&f| {
            let mut sys = tpch_system(DeviceKind::SmartSsd, Layout::Pax, s);
            sys.warm_cache(queries::LINEITEM, f).expect("warm");
            let inputs = PlannerInputs {
                selectivity: 0.006,
                tuples_per_page: 55.0,
                ..PlannerInputs::default()
            };
            let report = sys
                .run(&q6(), RunOptions::planned(planner.clone(), inputs))
                .expect("cache run");
            CachePoint {
                resident: f,
                route: report.route,
                elapsed: report.result.elapsed,
            }
        })
        .collect()
}

/// One point of the device-hardware-scaling experiment.
#[derive(Debug, Clone)]
pub struct DeviceScalingPoint {
    /// Configuration label.
    pub label: &'static str,
    /// Device cores x clock.
    pub cores: usize,
    /// Device core clock, MHz.
    pub mhz: u64,
    /// Configured internal DRAM bus bandwidth, MB/s.
    pub internal_mbps: u64,
    /// Q6 elapsed on this device, seconds.
    pub smart_secs: f64,
    /// Speedup over the fixed regular-SSD baseline.
    pub speedup: f64,
}

/// Section 5's hardware roadmap: "The next step must be to add in more
/// hardware (CPU, SRAM and DRAM) ... crucial to achieve the 10X or more
/// benefit that Smart SSDs have the potential of providing."
///
/// Sweeps device CPU and the internal data path while the SSD baseline
/// stays fixed: more cores alone saturate at the internal-bandwidth bound;
/// the 10x regime needs both.
pub fn device_scaling_exp(s: &Scales) -> Vec<DeviceScalingPoint> {
    let query = q6();
    // Fixed baseline: the paper's regular SSD, host execution.
    let mut base_sys = tpch_system(DeviceKind::Ssd, Layout::Nsm, s);
    let base = base_sys
        .run(&query, RunOptions::default())
        .expect("baseline")
        .result
        .elapsed;
    // (label, cores, MHz, channels, channel MB/s, dram MB/s)
    let configs: [(&'static str, usize, u64, usize, u64, u64); 5] = [
        ("paper prototype", 2, 400, 8, 400, 1_600),
        ("more cores", 8, 400, 8, 400, 1_600),
        ("faster cores", 8, 1_000, 8, 400, 1_600),
        ("wider internal path", 8, 1_000, 16, 800, 6_400),
        ("projected device", 16, 1_600, 32, 800, 12_800),
    ];
    configs
        .iter()
        .map(|&(label, cores, mhz, channels, ch_mbps, dram_mbps)| {
            let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                .tweak(|cfg| {
                    cfg.smart.cpu_cores = cores;
                    cfg.smart.cpu_hz = mhz * 1_000_000;
                    cfg.flash.channels = channels;
                    cfg.flash.channel_bw = ch_mbps * 1_000_000;
                    cfg.flash.dram_bw = dram_mbps * 1_000_000;
                })
                .build();
            sys.load_table_rows(
                queries::LINEITEM,
                &tpch::lineitem_schema(),
                tpch::lineitem_rows(s.tpch_sf, s.seed),
            )
            .expect("load");
            sys.finish_load();
            let elapsed = sys
                .run(&query, RunOptions::default())
                .expect("smart")
                .result
                .elapsed;
            DeviceScalingPoint {
                label,
                cores,
                mhz,
                internal_mbps: dram_mbps,
                smart_secs: elapsed.as_secs_f64(),
                speedup: base.as_secs_f64() / elapsed.as_secs_f64(),
            }
        })
        .collect()
}

/// One point of the interface-generation experiment.
#[derive(Debug, Clone)]
pub struct InterfacePoint {
    /// Interface under test.
    pub interface: smartssd_host::InterfaceKind,
    /// Baseline (host execution) elapsed, seconds.
    pub ssd_secs: f64,
    /// Pushdown elapsed, seconds.
    pub smart_secs: f64,
}

impl InterfacePoint {
    /// Pushdown speedup under this interface.
    pub fn speedup(&self) -> f64 {
        self.ssd_secs / self.smart_secs
    }
}

/// Section 3 notes the protocol "could be extended for PCIe"; Figure 1's
/// whole premise is that the host interface keeps falling behind. This
/// sweep runs the Figure 5 join (1% selectivity, host path I/O-bound) on
/// successive interface generations: pushdown's advantage shrinks as the
/// pipe widens and inverts once the interface outruns the device's
/// internal path.
pub fn interface_exp(s: &Scales) -> Vec<InterfacePoint> {
    use smartssd_host::InterfaceKind;
    let query = join_query(0.01);
    [
        InterfaceKind::Sas3,
        InterfaceKind::Sas6,
        InterfaceKind::Sas12,
        InterfaceKind::PcieGen2x4,
        InterfaceKind::PcieGen3x4,
    ]
    .iter()
    .map(|&interface| {
        let build = |kind: DeviceKind, layout: Layout| {
            let mut sys = SystemBuilder::new(kind, layout)
                .interface(interface)
                .build();
            sys.load_table_rows(
                queries::SYNTH_R,
                &synthetic_schema(),
                synthetic64_r(s.synth_scale, s.seed),
            )
            .expect("load R");
            sys.load_table_rows(
                queries::SYNTH_S,
                &synthetic_schema(),
                synthetic64_s(s.synth_scale, s.synth_scale, s.seed),
            )
            .expect("load S");
            sys.finish_load();
            sys
        };
        let mut ssd = build(DeviceKind::Ssd, Layout::Nsm);
        let mut smart = build(DeviceKind::SmartSsd, Layout::Pax);
        InterfacePoint {
            interface,
            ssd_secs: ssd
                .run(&query, RunOptions::default())
                .expect("ssd")
                .result
                .elapsed
                .as_secs_f64(),
            smart_secs: smart
                .run(&query, RunOptions::default())
                .expect("smart")
                .result
                .elapsed
                .as_secs_f64(),
        }
    })
    .collect()
}

/// One point of the concurrent-sessions experiment.
#[derive(Debug, Clone)]
pub struct ConcurrencyPoint {
    /// Number of concurrent sessions.
    pub sessions: usize,
    /// Makespan: time until the last session finishes.
    pub makespan_secs: f64,
    /// Makespan normalized by the single-session time.
    pub slowdown: f64,
}

/// Builds a Smart SSD system with only LINEITEM loaded, cold, after
/// applying `f` to the builder — the shape all workload-level concurrency
/// experiments share (PART would only add unread pages).
fn lineitem_system(s: &Scales, f: impl FnOnce(SystemBuilder) -> SystemBuilder) -> System {
    let mut sys = f(SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)).build();
    sys.load_table_rows(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(s.tpch_sf, s.seed),
    )
    .expect("load lineitem");
    sys.finish_load();
    sys
}

/// N simultaneous Q6 pushdown sessions under device-only timing: the
/// makespan of a [`Workload::burst`] with the interface taken out of the
/// picture, so the curve isolates device-internal contention (embedded
/// CPU and flash path), with scan sharing on or off and optionally a
/// scaled device CPU (`cores_mhz`).
fn q6_burst_makespan(
    s: &Scales,
    n: usize,
    shared: bool,
    cores_mhz: Option<(usize, u64)>,
) -> Result<WorkloadReport, RunError> {
    let mut sys = lineitem_system(s, |b| {
        b.shared_scans(shared).tweak(|cfg| {
            cfg.smart.max_sessions = n.max(4);
            if let Some((cores, mhz)) = cores_mhz {
                cfg.smart.cpu_cores = cores;
                cfg.smart.cpu_hz = mhz * 1_000_000;
            }
        })
    });
    sys.run_workload(
        &Workload::burst(&q6(), n),
        WorkloadOptions::new().interface(InterfaceMode::Direct),
    )
}

/// "Considering the impact of concurrent queries" is on the paper's
/// research-opportunities list (Section 5). N identical Q6 sessions open
/// simultaneously on one device and share its CPU and flash path; the
/// slowdown is always normalized against the true single-session makespan,
/// whatever range the sweep covers.
///
/// Queries run through [`smartssd::System::run_workload`] and its
/// fault-tolerant session machinery, so an injected device fault propagates
/// as a [`RunError`] instead of crashing the experiment.
pub fn concurrent_exp(
    s: &Scales,
    session_counts: &[usize],
) -> Result<Vec<ConcurrencyPoint>, RunError> {
    let base = q6_burst_makespan(s, 1, false, None)?.makespan.as_secs_f64();
    session_counts
        .iter()
        .map(|&n| {
            let secs = if n == 1 {
                base
            } else {
                q6_burst_makespan(s, n, false, None)?.makespan.as_secs_f64()
            };
            Ok(ConcurrencyPoint {
                sessions: n,
                makespan_secs: secs,
                slowdown: secs / base,
            })
        })
        .collect()
}

/// One point of a workload-level concurrency curve.
#[derive(Debug, Clone)]
pub struct WorkloadCurvePoint {
    /// Number of concurrent sessions in the burst.
    pub sessions: usize,
    /// Time until the last session finishes, seconds.
    pub makespan_secs: f64,
    /// Makespan over the single-session makespan on the same device.
    pub slowdown: f64,
    /// Queries per second of simulated time.
    pub throughput_qps: f64,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile query latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile query latency, milliseconds.
    pub p99_ms: f64,
    /// Flash page reads the workload issued.
    pub flash_reads: u64,
    /// Page reads served by the device's shared-scan window instead of
    /// flash.
    pub shared_hits: u64,
}

/// One curve of the concurrency experiment: a device configuration with
/// scan sharing on or off, swept over session counts.
#[derive(Debug, Clone)]
pub struct ConcurrencyCurve {
    /// Device configuration label.
    pub config: &'static str,
    /// Embedded CPU cores.
    pub cores: usize,
    /// Embedded CPU clock, MHz.
    pub mhz: u64,
    /// Whether device-side scan sharing was enabled.
    pub shared_scans: bool,
    /// One point per session count.
    pub points: Vec<WorkloadCurvePoint>,
}

/// The workload-level concurrency experiment: N simultaneous Q6 pushdown
/// sessions, with device-side scan sharing off vs on, on two devices.
///
/// On the paper-era prototype (2 cores at 400 MHz) the embedded CPU is the
/// bottleneck at ~99% utilization, so sharing the flash reads barely bends
/// the curve — the serialization the paper's Section 5 worries about is
/// real. On a Section 5 scaled device (8 cores at 1 GHz, same flash) the
/// flash path dominates instead, and scan sharing collapses the N-session
/// flash traffic to ~1x: the slowdown curve flattens well below N.
pub fn concurrency_exp(
    s: &Scales,
    session_counts: &[usize],
) -> Result<Vec<ConcurrencyCurve>, RunError> {
    let configs: [(&'static str, usize, u64); 2] =
        [("paper prototype", 2, 400), ("scaled device", 8, 1_000)];
    let mut curves = Vec::new();
    for &(config, cores, mhz) in &configs {
        for shared in [false, true] {
            let base = q6_burst_makespan(s, 1, shared, Some((cores, mhz)))?
                .makespan
                .as_secs_f64();
            let points = session_counts
                .iter()
                .map(|&n| {
                    let rep = q6_burst_makespan(s, n, shared, Some((cores, mhz)))?;
                    let secs = rep.makespan.as_secs_f64();
                    Ok(WorkloadCurvePoint {
                        sessions: n,
                        makespan_secs: secs,
                        slowdown: secs / base,
                        throughput_qps: rep.throughput_qps,
                        p50_ms: rep.latency.p50.as_secs_f64() * 1e3,
                        p95_ms: rep.latency.p95.as_secs_f64() * 1e3,
                        p99_ms: rep.latency.p99.as_secs_f64() * 1e3,
                        flash_reads: rep.flash_reads,
                        shared_hits: rep.shared_hits,
                    })
                })
                .collect::<Result<Vec<_>, RunError>>()?;
            curves.push(ConcurrencyCurve {
                config,
                cores,
                mhz,
                shared_scans: shared,
                points,
            });
        }
    }
    Ok(curves)
}

/// One point of the host-parallelism ablation.
#[derive(Debug, Clone)]
pub struct HostParallelPoint {
    /// Host intra-query degree of parallelism.
    pub dop: usize,
    /// Host-route Q6 elapsed, seconds.
    pub ssd_secs: f64,
    /// Smart SSD (PAX) pushdown speedup over this baseline.
    pub pushdown_speedup: f64,
}

/// Ablation the paper's setup invites: its baseline runs the scan on one
/// host thread ("a prototype version of SQL Server that only works on a
/// selected class of queries"). A production DBMS would parallelize the
/// scan — how much of the Smart SSD's Q6 win survives?
pub fn host_parallel_exp(s: &Scales, dops: &[usize]) -> Vec<HostParallelPoint> {
    // Fixed pushdown reference.
    let mut smart = tpch_system(DeviceKind::SmartSsd, Layout::Pax, s);
    let smart_secs = smart
        .run(&q6(), RunOptions::default())
        .expect("smart q6")
        .result
        .elapsed
        .as_secs_f64();
    dops.iter()
        .map(|&dop| {
            let mut sys = SystemBuilder::new(DeviceKind::Ssd, Layout::Nsm)
                .host_dop(dop)
                .build();
            sys.load_table_rows(
                queries::LINEITEM,
                &tpch::lineitem_schema(),
                tpch::lineitem_rows(s.tpch_sf, s.seed),
            )
            .expect("load");
            sys.finish_load();
            let ssd_secs = sys
                .run(&q6(), RunOptions::default())
                .expect("host q6")
                .result
                .elapsed
                .as_secs_f64();
            HostParallelPoint {
                dop,
                ssd_secs,
                pushdown_speedup: ssd_secs / smart_secs,
            }
        })
        .collect()
}

/// Result of the grouped-aggregation (TPC-H Q1) extension experiment.
#[derive(Debug, Clone)]
pub struct Q1Result {
    /// Host-route elapsed on the regular SSD, seconds.
    pub ssd_secs: f64,
    /// Pushdown elapsed on the paper-era Smart SSD, seconds.
    pub smart_secs: f64,
    /// Pushdown elapsed on a Section 5 scaled-up device, seconds.
    pub scaled_secs: f64,
    /// The grouped output rows (flag, status, sums..., count).
    pub rows: Vec<smartssd_storage::Tuple>,
}

/// Extension: grouped aggregation (TPC-H Q1) pushed into the device. On the
/// paper-era prototype it only breaks even (every row aggregates, the
/// embedded CPU saturates); on a scaled device it wins — Section 5's
/// hardware argument applied to a heavier operator.
pub fn q1_exp(s: &Scales) -> Q1Result {
    let query = q1();
    let mut ssd = tpch_system(DeviceKind::Ssd, Layout::Nsm, s);
    let host = ssd.run(&query, RunOptions::default()).expect("ssd q1");
    let mut smart = tpch_system(DeviceKind::SmartSsd, Layout::Pax, s);
    let dev = smart.run(&query, RunOptions::default()).expect("smart q1");
    let mut big = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .tweak(|cfg| {
            cfg.smart.cpu_cores = 8;
            cfg.smart.cpu_hz = 1_000_000_000;
            cfg.flash.channels = 16;
            cfg.flash.dram_bw = 6_400_000_000;
        })
        .build();
    big.load_table_rows(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(s.tpch_sf, s.seed),
    )
    .expect("load");
    big.finish_load();
    let scaled = big.run(&query, RunOptions::default()).expect("scaled q1");
    Q1Result {
        ssd_secs: host.result.elapsed.as_secs_f64(),
        smart_secs: dev.result.elapsed.as_secs_f64(),
        scaled_secs: scaled.result.elapsed.as_secs_f64(),
        rows: dev.result.rows.clone(),
    }
}

/// One scenario row of the fault-injection observability experiment.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Scenario label.
    pub label: &'static str,
    /// Injected correctable-read-error rate (per read, out of 2^32).
    pub ecc_retry_rate: u32,
    /// Injected silent-corruption rate (per read, out of 2^32).
    pub silent_corruption_rate: u32,
    /// Where the query actually ran after any fallback.
    pub route: Route,
    /// Simulated elapsed seconds, recovery time included.
    pub elapsed_secs: f64,
    /// Whether rows and aggregates are bit-identical to the clean scenario.
    pub matches_clean: bool,
    /// Fault counters absorbed during the run.
    pub faults: smartssd_sim::FaultCounters,
}

/// Fault-injection observability: Q6 pushdown under increasing injected
/// fault rates. Recovery is about *time*, never answers — every scenario
/// must produce rows and aggregates bit-identical to the clean run, while
/// the counters and elapsed times show what the recovery machinery paid.
pub fn fault_injection_exp(s: &Scales) -> Vec<FaultPoint> {
    const SCENARIOS: &[(&str, u32, u32)] = &[
        ("clean", 0, 0),
        ("ecc-retries", u32::MAX / 64, 0),
        ("silent-corruption", 0, u32::MAX / 256),
        ("mixed", u32::MAX / 64, u32::MAX / 256),
    ];
    let query = q6();
    let mut clean: Option<(Vec<smartssd_storage::Tuple>, Vec<i128>)> = None;
    SCENARIOS
        .iter()
        .map(|&(label, ecc_retry_rate, silent_corruption_rate)| {
            let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                .fault_rates(ecc_retry_rate, 0, silent_corruption_rate)
                .build();
            sys.load_table_rows(
                queries::LINEITEM,
                &tpch::lineitem_schema(),
                tpch::lineitem_rows(s.tpch_sf, s.seed),
            )
            .expect("load lineitem");
            sys.finish_load();
            let rep = sys
                .run(&query, RunOptions::default())
                .expect("q6 under injected faults");
            let answer = (rep.result.rows.clone(), rep.result.agg_values.clone());
            let baseline = clean.get_or_insert_with(|| answer.clone());
            FaultPoint {
                label,
                ecc_retry_rate,
                silent_corruption_rate,
                route: rep.route,
                elapsed_secs: rep.result.elapsed.as_secs_f64(),
                matches_clean: answer == *baseline,
                faults: rep.faults,
            }
        })
        .collect()
}

/// One route of the trace experiment: the same query on the host or device
/// path, with the full simulated-time trace captured.
#[derive(Debug, Clone)]
pub struct TracePoint {
    /// Query name.
    pub query: String,
    /// Route this run was forced onto.
    pub route: Route,
    /// Simulated elapsed seconds.
    pub elapsed_secs: f64,
    /// Chrome `trace_event` JSON for the run (one pid per subsystem, one
    /// tid per channel/core). Open in Perfetto or `chrome://tracing`.
    pub chrome_json: String,
    /// Per-resource busy fraction (busy-ns over elapsed-ns), sorted by
    /// resource name. Fed by the same occupancy intervals as the trace.
    pub busy_fractions: Vec<(String, f64)>,
}

/// Traced run pair: Q6 on the Smart SSD (PAX), once forced onto the device
/// route and once onto the host route. Each route runs twice — once under a
/// [`ChromeTraceSink`] for the timeline and once under a [`CounterSink`]
/// for the busy-ns totals; the simulation is deterministic, so both runs
/// see identical timing.
pub fn trace_exp(s: &Scales) -> Vec<TracePoint> {
    let query = q6();
    [Route::Device, Route::Host]
        .iter()
        .map(|&route| {
            let mut sys =
                tpch_system_traced(DeviceKind::SmartSsd, Layout::Pax, s, ChromeTraceSink::new());
            let rep = sys
                .run(&query, RunOptions::routed(route))
                .expect("traced run");
            let chrome_json = rep
                .trace
                .chrome_json()
                .expect("chrome sink yields json")
                .to_string();
            let mut counted =
                tpch_system_traced(DeviceKind::SmartSsd, Layout::Pax, s, CounterSink::new());
            let crep = counted
                .run(&query, RunOptions::routed(route))
                .expect("counted run");
            assert_eq!(
                rep.result.elapsed, crep.result.elapsed,
                "deterministic sim: sink choice must not change timing"
            );
            let elapsed_ns = crep.result.elapsed.as_nanos();
            let snap = crep.trace.counters().expect("counter sink yields metrics");
            let busy_fractions = snap
                .busy_ns
                .iter()
                .map(|(&name, &ns)| (name.to_string(), ns as f64 / elapsed_ns as f64))
                .collect();
            TracePoint {
                query: query.name.clone(),
                route,
                elapsed_secs: rep.result.elapsed.as_secs_f64(),
                chrome_json,
                busy_fractions,
            }
        })
        .collect()
}

/// Traced concurrent workload: what the timeline of overlapping queries
/// looks like.
#[derive(Debug, Clone)]
pub struct WorkloadTracePoint {
    /// Number of queries in the workload.
    pub sessions: usize,
    /// Workload makespan, seconds.
    pub makespan_secs: f64,
    /// Chrome `trace_event` JSON: the session track carries one lane per
    /// in-flight query, so overlap is visible directly in Perfetto.
    pub chrome_json: String,
}

/// A traced four-query Q6 workload on the Smart SSD (PAX) with scan
/// sharing on: queries arrive as a seeded open stream over the full linked
/// protocol, and every session's OPEN/GET/CLOSE phases land on that
/// query's own lane of the session track.
pub fn workload_trace_exp(s: &Scales) -> WorkloadTracePoint {
    let n = 4;
    let mut sys = lineitem_system(s, |b| b.shared_scans(true).trace(ChromeTraceSink::new()));
    let workload = Workload::open_stream(&q6(), n, SimTime::from_nanos(2_000_000), s.seed);
    let rep = sys
        .run_workload(&workload, WorkloadOptions::default())
        .expect("traced workload");
    WorkloadTracePoint {
        sessions: n,
        makespan_secs: rep.makespan.as_secs_f64(),
        chrome_json: rep
            .trace
            .chrome_json()
            .expect("chrome sink yields json")
            .to_string(),
    }
}

/// One point of the graceful-degradation sweep: a fault scenario crossed
/// with the circuit breaker on or off.
#[derive(Debug, Clone)]
pub struct DegradePoint {
    /// Scenario label.
    pub label: &'static str,
    /// Injected whole-device crash rate (per session open, out of 2^32).
    pub crash_rate: u32,
    /// Injected correctable flash-read-error rate (per read, out of 2^32).
    pub ecc_retry_rate: u32,
    /// Whether health-aware routing (the circuit breaker) was enabled.
    pub breaker: bool,
    /// Queries that completed (on either route).
    pub completed: u64,
    /// Arrivals shed at the admission-queue bound.
    pub rejected: u64,
    /// Waiters shed past their start-of-service deadline.
    pub deadline_missed: u64,
    /// Completed queries per simulated second.
    pub throughput_qps: f64,
    /// Simulated time until the last completion, seconds.
    pub makespan_secs: f64,
    /// 95th-percentile completed-query latency, milliseconds.
    pub p95_ms: f64,
    /// Device-route attempts that fell back to the host mid-run.
    pub fallbacks: u64,
    /// Breaker state changes during the workload.
    pub breaker_transitions: u64,
    /// Whether every completed answer is bit-identical to the clean run's.
    pub matches_clean: bool,
    /// Fault counters absorbed during the workload.
    pub faults: smartssd_sim::FaultCounters,
}

/// One point of the simulator-throughput sweep: how fast the simulator
/// chews through an open Q6-class arrival stream, in wall-clock terms.
#[derive(Debug, Clone)]
pub struct SimspeedPoint {
    /// Number of arrivals in the open stream.
    pub arrivals: usize,
    /// Completed queries (must equal `arrivals` on a clean run).
    pub completed: usize,
    /// Flash page reads the whole stream issued.
    pub flash_reads: u64,
    /// Simulated makespan, seconds.
    pub sim_secs: f64,
    /// Best wall-clock time over the reps, seconds.
    pub wall_secs: f64,
    /// Arrivals processed per wall-clock second — the headline metric.
    pub arrivals_per_sec: f64,
    /// Simulated nanoseconds advanced per wall-clock second.
    pub sim_ns_per_wall_sec: f64,
}

/// Row count of the simspeed table: a LINEITEM slice small enough that one
/// query scans a handful of pages, so the sweep measures scheduler and
/// timeline overhead rather than kernel arithmetic.
pub const SIMSPEED_ROWS: u64 = 360;

/// Mean inter-arrival gap of the simspeed stream: 86.4 ms, i.e. one million
/// queries per simulated day — the "million-query day" the sweep simulates.
pub const SIMSPEED_MEAN_GAP: SimTime = SimTime::from_micros(86_400);

/// Builds the simspeed system: a Smart SSD with a [`SIMSPEED_ROWS`]-row
/// LINEITEM slice loaded, cold. Table size is fixed (not scaled by
/// [`Scales`]) so throughput numbers are comparable across runs.
pub fn simspeed_system(seed: u64) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    sys.load_table_rows(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(SIMSPEED_ROWS as f64 / tpch::LINEITEM_ROWS_SF1 as f64, seed),
    )
    .expect("load lineitem slice");
    sys.finish_load();
    sys
}

/// The open Q6 arrival stream the simspeed sweep replays.
pub fn simspeed_workload(n: usize, seed: u64) -> Workload {
    Workload::open_stream(&q6(), n, SIMSPEED_MEAN_GAP, seed)
}

/// Simulator-throughput sweep: replays open streams of `counts` Q6 arrivals
/// under device-only timing and reports arrivals per wall-clock second and
/// simulated-ns advanced per wall-clock second. Each point takes the best
/// of `reps` runs on a freshly built (cold) system; simulated figures are
/// deterministic, wall-clock figures are machine-dependent.
pub fn simspeed_exp(
    s: &Scales,
    counts: &[usize],
    reps: u32,
) -> Result<Vec<SimspeedPoint>, RunError> {
    let opts = || WorkloadOptions::new().interface(InterfaceMode::Direct);
    let mut points = Vec::new();
    for &n in counts {
        let workload = simspeed_workload(n, s.seed);
        let mut best_wall = f64::INFINITY;
        let mut rep = None;
        for _ in 0..reps.max(1) {
            let mut sys = simspeed_system(s.seed);
            let t = std::time::Instant::now();
            let r = sys.run_workload(&workload, opts())?;
            best_wall = best_wall.min(t.elapsed().as_secs_f64());
            rep = Some(r);
        }
        let rep = rep.expect("at least one rep");
        let sim_ns = rep.makespan.as_nanos();
        points.push(SimspeedPoint {
            arrivals: n,
            completed: rep.completions.len(),
            flash_reads: rep.flash_reads,
            sim_secs: rep.makespan.as_secs_f64(),
            wall_secs: best_wall,
            arrivals_per_sec: n as f64 / best_wall,
            sim_ns_per_wall_sec: sim_ns as f64 / best_wall,
        });
    }
    Ok(points)
}

/// One cell of the serving-scale sweep ([`servescale_exp`]).
#[derive(Debug, Clone)]
pub struct ServescalePoint {
    /// Admission engine: `"heap"` (keyed min-heap) or `"scan"` (the
    /// linear-scan reference, the pre-heap scheduler).
    pub engine: &'static str,
    /// Registered tenants contending for the single device session slot.
    pub tenants: usize,
    /// Total arrivals across all tenants (per-tenant count × tenants).
    pub arrivals: usize,
    /// Arrivals that completed.
    pub completed: u64,
    /// Arrivals shed by their cancellation instant.
    pub canceled: u64,
    /// Simulated makespan, seconds.
    pub sim_secs: f64,
    /// Best wall-clock time over the reps, seconds.
    pub wall_secs: f64,
    /// Arrivals processed per wall-clock second — the headline metric.
    pub arrivals_per_sec: f64,
    /// Simulated nanoseconds advanced per wall-clock second.
    pub sim_ns_per_wall_sec: f64,
}

/// LINEITEM slice size for the serving-scale sweep. Deliberately smaller
/// than [`SIMSPEED_ROWS`]: the sweep measures the admission scheduler, and
/// a tiny table keeps per-query device simulation (identical across
/// engines) from masking the scheduler's share of the wall clock.
pub const SERVESCALE_ROWS: u64 = 64;

/// Builds the serving-scale system: a [`SERVESCALE_ROWS`]-row LINEITEM
/// slice with `max_sessions = 1`, so every arrival but the one in service
/// queues and the sweep measures admission scheduling — heap maintenance,
/// slab traffic, cancellation events — not kernel arithmetic.
pub fn servescale_system(seed: u64) -> System {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .tweak(|c| c.smart.max_sessions = 1)
        .build();
    sys.load_table_rows(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(
            SERVESCALE_ROWS as f64 / tpch::LINEITEM_ROWS_SF1 as f64,
            seed,
        ),
    )
    .expect("load lineitem slice");
    sys.finish_load();
    sys
}

/// The serving-scale tenant registry: `tenants` loads of
/// `arrivals / tenants` Q6 queries each, offered at an aggregate ρ ≈ 2 of
/// the single slot's capacity — an overload day, so the wait set stays
/// saturated and roughly half the arrivals abandon (patience: 8 service
/// times) instead of reaching the device. That load shape puts the
/// *admission path* on the critical path: every arrival is pushed,
/// canceled-or-granted, and popped through the wait set, while device
/// work (identical across engines) stays a minority of the wall clock.
/// Weights cycle 1..=8 (distinct finish-tag slopes) and models alternate
/// Uniform/Exponential, so heap refreshes, tombstones, and cancellation
/// events are all on the measured path.
pub fn servescale_loads(tenants: usize, arrivals: usize, service: SimTime) -> Vec<TenantLoad> {
    let query = q6();
    let per_tenant = (arrivals / tenants).max(1);
    // Aggregate offered rate tenants/gap = 2/service.
    let gap = SimTime::from_nanos(service.as_nanos() * tenants as u64 / 2);
    (0..tenants)
        .map(|i| {
            TenantLoad::new(
                TenantSpec::new(format!("t{i}")).weight(1 + (i % 8) as u64),
                query.clone(),
                per_tenant,
                gap,
            )
            .model(if i % 2 == 0 {
                ArrivalModel::Uniform
            } else {
                ArrivalModel::Exponential
            })
            .cancel_after(SimTime::from_nanos(service.as_nanos() * 8))
        })
        .collect()
}

/// Serving-scale sweep: streams each `(tenants, arrivals, reference)` cell
/// through [`System::run_serving`] (device-only timing, one session slot)
/// and reports arrivals per wall-clock second. `reference = true` cells
/// run the linear-scan admission engine — the pre-heap scheduler, kept as
/// the executable specification — so the JSON carries its own speedup
/// baseline. Each cell takes the best of `reps` runs on a freshly built
/// (cold) system; simulated figures are deterministic in `seed`,
/// wall-clock figures are machine-dependent.
pub fn servescale_exp(
    seed: u64,
    cells: &[(usize, usize, bool)],
    reps: u32,
) -> Result<Vec<ServescalePoint>, RunError> {
    // One probe run prices Q6 device service on this table, so load sizing
    // is invariant to kernel-cost changes.
    let service = {
        let mut probe = servescale_system(seed);
        probe
            .run(&q6(), RunOptions::routed(Route::Device))?
            .result
            .elapsed
    };
    let mut points = Vec::new();
    for &(tenants, arrivals, reference) in cells {
        let loads = servescale_loads(tenants, arrivals, service);
        let total: usize = loads.iter().map(|l| l.count()).sum();
        let mut best_wall = f64::INFINITY;
        let mut rep = None;
        for _ in 0..reps.max(1) {
            let mut sys = servescale_system(seed);
            let opts = WorkloadOptions::new()
                .interface(InterfaceMode::Direct)
                .reference_admission(reference);
            let t = std::time::Instant::now();
            let r = sys.run_serving(&loads, seed, opts)?;
            best_wall = best_wall.min(t.elapsed().as_secs_f64());
            rep = Some(r);
        }
        let rep = rep.expect("at least one rep");
        points.push(ServescalePoint {
            engine: if reference { "scan" } else { "heap" },
            tenants,
            arrivals: total,
            completed: rep.completions.len() as u64,
            canceled: rep.canceled,
            sim_secs: rep.makespan.as_secs_f64(),
            wall_secs: best_wall,
            arrivals_per_sec: total as f64 / best_wall,
            sim_ns_per_wall_sec: rep.makespan.as_nanos() as f64 / best_wall,
        });
    }
    Ok(points)
}

/// Graceful degradation under sustained device faults (robustness
/// extension; not a paper figure): a 16-query Q6 open stream over the
/// linked protocol, swept across crash/ECC fault rates with the circuit
/// breaker off and on. With the breaker off every arrival still probes the
/// crashing firmware, pays the wasted `OPEN` transfer plus reset downtime,
/// and only then falls back to the host; with it on, sustained failures
/// trip the breaker and later arrivals route straight to the host-side
/// block path (a separate failure domain), so throughput degrades smoothly
/// instead of cliff-collapsing. Completed answers stay bit-identical to
/// the clean run in every cell.
pub fn degrade_exp(s: &Scales) -> Result<Vec<DegradePoint>, RunError> {
    const SCENARIOS: &[(&str, u32, u32)] = &[
        ("clean", 0, 0),
        ("light", u32::MAX / 16, u32::MAX / 256),
        ("moderate", u32::MAX / 4, u32::MAX / 128),
        ("sustained", u32::MAX, u32::MAX / 128),
    ];
    let query = q6();
    // Size the arrival stream, firmware reset latency, deadline, and
    // breaker windows in units of one clean host-route run, so the sweep's
    // shape is scale-invariant: the host path is the degradation target,
    // and "hopelessly late" means several host-runs of queueing.
    let host_run = {
        let mut probe = lineitem_system(s, |b| b);
        probe
            .run(&query, RunOptions::routed(Route::Host))?
            .result
            .elapsed
    };
    let scaled = |mult_num: u64, mult_den: u64| {
        SimTime::from_nanos(host_run.as_nanos() * mult_num / mult_den)
    };
    let n = 16;
    let reset_latency = scaled(2, 1);
    let policy = smartssd::BreakerPolicy {
        enabled: true,
        failure_threshold: 3,
        // The cooldown spans several inter-arrival gaps: once tripped, the
        // breaker probes the device only a few times over the whole
        // stream, so the tail of the workload routes straight to the host
        // instead of waiting out one more firmware reset.
        window: scaled(8, 1),
        cooldown: scaled(6, 1),
        ..smartssd::BreakerPolicy::default()
    };
    let opts = WorkloadOptions::new()
        .queue_bound(n)
        .deadline(scaled(24, 1));
    let mut clean_answer: Option<Vec<i128>> = None;
    let mut points = Vec::new();
    for &(label, crash_rate, ecc_retry_rate) in SCENARIOS {
        for breaker in [false, true] {
            let mut sys = lineitem_system(s, |b| {
                let b = b
                    .fault_rates(ecc_retry_rate, 0, 0)
                    .crash_faults(crash_rate, reset_latency);
                if breaker {
                    b.breaker(policy)
                } else {
                    b
                }
            });
            let workload = Workload::open_stream(&query, n, scaled(5, 4), s.seed);
            let rep = sys.run_workload(&workload, opts.clone())?;
            let baseline = clean_answer.get_or_insert_with(|| {
                rep.completions
                    .first()
                    .map(|c| c.result.agg_values.clone())
                    .unwrap_or_default()
            });
            let matches_clean = !rep.completions.is_empty()
                && rep
                    .completions
                    .iter()
                    .all(|c| c.result.agg_values == *baseline);
            points.push(DegradePoint {
                label,
                crash_rate,
                ecc_retry_rate,
                breaker,
                completed: rep.completions.len() as u64,
                rejected: rep.rejected,
                deadline_missed: rep.deadline_missed,
                throughput_qps: rep.throughput_qps,
                makespan_secs: rep.makespan.as_secs_f64(),
                p95_ms: rep.latency.p95.as_secs_f64() * 1e3,
                fallbacks: rep.faults.fallbacks,
                breaker_transitions: rep.breaker_transitions.len() as u64,
                matches_clean,
                faults: rep.faults,
            });
        }
    }
    Ok(points)
}

/// One point of the fleet scaling sweep: Q6 scattered across N shards.
#[derive(Debug, Clone)]
pub struct FleetScalePoint {
    /// Number of devices (= shards).
    pub devices: usize,
    /// Coordinator completion time (slowest shard + gather).
    pub elapsed: SimTime,
    /// Speedup over the single-device fleet.
    pub speedup: f64,
}

/// One cell of the fleet degradation matrix: a Q6 stream on a 16-device
/// fleet, healthy vs one-device-dead, breaker off vs on.
#[derive(Debug, Clone)]
pub struct FleetDegradePoint {
    /// Scenario label.
    pub label: &'static str,
    /// Whether the per-device circuit breakers were enabled.
    pub breaker: bool,
    /// Devices with a permanent crash fault armed.
    pub dead_devices: usize,
    /// Queries in the stream.
    pub queries: usize,
    /// Completed queries per simulated second.
    pub throughput_qps: f64,
    /// Fraction of the *ideal degraded* throughput (healthy throughput
    /// scaled by alive/total devices) this cell achieved.
    pub of_ideal: f64,
    /// 95th-percentile query latency, milliseconds.
    pub p95_ms: f64,
    /// Shards that degraded mid-run after a recoverable session fault.
    pub fallbacks: u64,
    /// Shard runs that ended on the host route.
    pub host_shard_runs: u64,
    /// Whether a post-stream Q6 answer is bit-identical to the healthy
    /// fleet's.
    pub matches_clean: bool,
    /// Faults absorbed across the whole stream.
    pub faults: smartssd_sim::FaultCounters,
}

/// Results of the fleet experiment: the scaling curve and the
/// degradation-under-crash matrix.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Q6 completion time vs shard count.
    pub scaling: Vec<FleetScalePoint>,
    /// Degradation matrix on [`FLEET_DEGRADE_DEVICES`] devices.
    pub degradation: Vec<FleetDegradePoint>,
}

/// Fleet size of the degradation matrix.
pub const FLEET_DEGRADE_DEVICES: usize = 16;

/// Builds a LINEITEM-loaded fleet of `n` devices, cold.
fn tpch_fleet(
    n: usize,
    s: &Scales,
    opts: smartssd::FleetOptions,
    breaker: bool,
) -> smartssd::SmartSsdFleet {
    let mut b = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax);
    if breaker {
        let mut pol = smartssd::BreakerPolicy::enabled();
        // A dead-device probe costs a full firmware reset wait (~5 ms,
        // several query lifetimes), so probe sparingly: the default 8 ms
        // cooldown would re-probe nearly every query.
        pol.cooldown = SimTime::from_micros(1_000_000);
        b = b.breaker(pol);
    }
    let mut fleet = b.build_fleet(n, opts);
    fleet
        .load_partitioned(
            queries::LINEITEM,
            &tpch::lineitem_schema(),
            tpch::lineitem_rows(s.tpch_sf, s.seed),
        )
        .expect("load lineitem");
    fleet.finish_load();
    fleet
}

/// Parallel-DBMS extension (paper Section 4.3): Q6 scattered across a fleet
/// of Smart SSDs over the full linked session protocol, gathered and merged
/// on the host.
///
/// Two sweeps: (1) scaling — one cold Q6 per shard count in
/// `device_counts`, speedup measured against the single-device fleet; and
/// (2) degradation — a `stream_len`-query Q6 stream on a 16-device fleet,
/// healthy vs one crashed device, breaker off vs on. With the breaker off every query keeps probing the
/// dead device and pays its firmware reset latency before falling back;
/// with it on the breaker trips after the first failures and later queries
/// route that shard straight to the host block path — a separate failure
/// domain — so one dead device out of 16 costs about one shard of
/// throughput, not an outage.
pub fn fleet_exp(
    s: &Scales,
    device_counts: &[usize],
    stream_len: usize,
) -> Result<FleetResult, RunError> {
    use smartssd::FleetOptions;

    // Sweep 1: scaling. Pure scatter/gather.
    let mut scaling = Vec::new();
    let mut base = None;
    for &n in device_counts {
        let mut fleet = tpch_fleet(n, s, FleetOptions::default(), false);
        let r = fleet.run_agg(&q6())?;
        let elapsed = r.result.elapsed;
        let base_secs = *base.get_or_insert(elapsed.as_secs_f64());
        scaling.push(FleetScalePoint {
            devices: n,
            elapsed,
            speedup: base_secs / elapsed.as_secs_f64(),
        });
    }

    // Sweep 2: degradation under a crashed device.
    let stream: Vec<_> = (0..stream_len).map(|_| q6()).collect();
    let n = FLEET_DEGRADE_DEVICES;
    let mut degradation = Vec::new();
    let mut healthy_qps = 0.0;
    let mut clean_answer = None;
    for (label, dead, breaker) in [
        ("healthy", 0usize, false),
        ("one-dead", 1usize, false),
        ("one-dead", 1usize, true),
    ] {
        let mut fleet = tpch_fleet(n, s, FleetOptions::default(), breaker);
        for d in 0..dead {
            fleet.device_mut(d).config_mut().fault_rates.crash_rate = u32::MAX;
        }
        let rep = fleet.run_stream(&stream)?;
        // Answer check: one more Q6 after the stream, against the healthy
        // fleet's answer.
        fleet.clear_host_cache();
        let check = fleet.run_agg(&q6())?;
        let answer = (check.result.agg_values.clone(), check.result.scalar);
        let matches_clean = match &clean_answer {
            None => {
                clean_answer = Some(answer);
                true
            }
            Some(clean) => *clean == answer,
        };
        if dead == 0 && !breaker {
            healthy_qps = rep.throughput_qps;
        }
        let ideal = healthy_qps * (n - dead) as f64 / n as f64;
        degradation.push(FleetDegradePoint {
            label,
            breaker,
            dead_devices: dead,
            queries: rep.queries,
            throughput_qps: rep.throughput_qps,
            of_ideal: if ideal > 0.0 {
                rep.throughput_qps / ideal
            } else {
                0.0
            },
            p95_ms: rep.latency.p95.as_secs_f64() * 1e3,
            fallbacks: rep.fallbacks,
            host_shard_runs: rep.host_shard_runs,
            matches_clean,
            faults: rep.faults,
        });
    }
    Ok(FleetResult {
        scaling,
        degradation,
    })
}

/// One point of the serving load sweep: an open Poisson Q6 stream at a
/// fixed offered utilization against one device session slot.
#[derive(Debug, Clone)]
pub struct ServingLoadPoint {
    /// Offered utilization: service time over mean inter-arrival gap.
    pub rho: f64,
    /// Mean inter-arrival gap of the Poisson stream.
    pub mean_gap: SimTime,
    /// Offered arrivals per simulated second.
    pub offered_qps: f64,
    /// Completed queries per simulated second.
    pub throughput_qps: f64,
    /// Arrivals that completed.
    pub completed: u64,
    /// Arrivals abandoned by their client (patience exhausted).
    pub canceled: u64,
    /// Median completed-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile completed-query latency, milliseconds.
    pub p99_ms: f64,
}

/// One tenant's outcome in one scenario of the isolation experiment.
#[derive(Debug, Clone)]
pub struct ServingTenantPoint {
    /// Scenario label: `baseline`, `aggressor+wfq`, or `aggressor+fifo`.
    pub scenario: &'static str,
    /// Whether weighted fair queueing was enabled.
    pub fair: bool,
    /// Tenant name.
    pub tenant: String,
    /// Arrivals tagged with this tenant.
    pub arrivals: u64,
    /// Arrivals that completed.
    pub completed: u64,
    /// Arrivals shed at the tenant's admission bound.
    pub rejected: u64,
    /// Arrivals shed past their start-of-service deadline.
    pub deadline_missed: u64,
    /// Arrivals canceled by client abandonment.
    pub canceled: u64,
    /// Arrivals lost to unrecoverable faults.
    pub failed: u64,
    /// Median completed-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile completed-query latency, milliseconds.
    pub p99_ms: f64,
}

/// Result of the serving experiment: the knee sweep plus the per-tenant
/// isolation matrix.
#[derive(Debug, Clone)]
pub struct ServingResult {
    /// One clean device-route Q6 run — the unit every load is sized in.
    pub service_time: SimTime,
    /// Open-system p99-vs-utilization sweep.
    pub knee: Vec<ServingLoadPoint>,
    /// Per-tenant rows of the three isolation scenarios.
    pub isolation: Vec<ServingTenantPoint>,
}

impl ServingResult {
    /// The p99 of one `(scenario, tenant)` cell of the isolation matrix,
    /// in milliseconds (0.0 when absent).
    pub fn isolation_p99_ms(&self, scenario: &str, tenant: &str) -> f64 {
        self.isolation
            .iter()
            .find(|p| p.scenario == scenario && p.tenant == tenant)
            .map(|p| p.p99_ms)
            .unwrap_or(0.0)
    }
}

/// Open-system multi-tenant serving (Section 5 extension; not a paper
/// figure): the Smart SSD as a *shared* production resource.
///
/// Sweep 1 drives one Poisson Q6 stream at offered utilizations from 25%
/// to 2x the single-slot service rate, with 20-service-time client
/// patience: throughput tracks the offered load until the knee, then
/// saturates while p99 climbs to the abandonment ceiling — the classic
/// open-system hockey stick.
///
/// Sweep 2 is the isolation matrix: two well-behaved victims (a lane-0
/// `interactive` tenant and a lane-1 `reporting` tenant) run alone for a
/// baseline, then alongside an `aggressor` flooding at 2x device capacity
/// behind a 16-deep admission bound, once with weighted fair queueing and
/// once with global FIFO admission. The acceptance claim of the serving
/// work: with WFQ on, every victim's p99 stays within 2x of its
/// aggressor-free baseline; with FIFO, victims queue behind the flood and
/// blow far past it. Everything is sized in units of one device-route
/// service time, so the shape is scale-invariant, and every run is
/// deterministic in the seed.
pub fn serving_exp(
    s: &Scales,
    knee_arrivals: usize,
    victim_arrivals: usize,
) -> Result<ServingResult, RunError> {
    let query = q6();
    let service_time = {
        let mut probe = lineitem_system(s, |b| b);
        probe
            .run(&query, RunOptions::routed(Route::Device))?
            .result
            .elapsed
    };
    let frac = |num: u64, den: u64| SimTime::from_nanos(service_time.as_nanos() * num / den);
    // One session slot makes utilization arithmetic exact: capacity is one
    // query per service time, and rho = service_time / mean_gap.
    let serving_system = || lineitem_system(s, |b| b.tweak(|c| c.smart.max_sessions = 1));
    let run = |loads: &[TenantLoad], fair: bool| -> Result<WorkloadReport, RunError> {
        let (workload, tenants) = compose(loads, s.seed);
        let mut opts = WorkloadOptions::new()
            .interface(InterfaceMode::Direct)
            .fair_queueing(fair);
        for t in tenants {
            opts = opts.tenant(t);
        }
        serving_system().run_workload(&workload, opts)
    };

    // Sweep 1: the open-system knee.
    let mut knee = Vec::new();
    for &(num, den) in &[(1u64, 4u64), (2, 4), (3, 4), (7, 8), (1, 1), (9, 8), (2, 1)] {
        let mean_gap = frac(den, num);
        let load = TenantLoad::new(
            TenantSpec::new("open"),
            query.clone(),
            knee_arrivals,
            mean_gap,
        )
        .model(ArrivalModel::Exponential)
        .cancel_after(frac(20, 1));
        let rep = run(&[load], true)?;
        knee.push(ServingLoadPoint {
            rho: num as f64 / den as f64,
            mean_gap,
            offered_qps: 1e9 / mean_gap.as_nanos() as f64,
            throughput_qps: rep.throughput_qps,
            completed: rep.completions.len() as u64,
            canceled: rep.canceled,
            p50_ms: rep.latency.p50.as_secs_f64() * 1e3,
            p99_ms: rep.latency.p99.as_secs_f64() * 1e3,
        });
    }

    // Sweep 2: the isolation matrix. Victims offer a combined ~73% of
    // capacity (enough self-queueing that the baseline p99 is an honest
    // yardstick); the aggressor floods at 2x capacity behind its own
    // 16-deep admission bound, so excess flood is rejected unexecuted
    // while the backlog it does enqueue stays full.
    let victims = || {
        vec![
            TenantLoad::new(
                TenantSpec::new("interactive").weight(8).lane(0),
                query.clone(),
                victim_arrivals,
                frac(3, 1),
            )
            .model(ArrivalModel::Exponential),
            TenantLoad::new(
                TenantSpec::new("reporting").weight(4).lane(1),
                query.clone(),
                victim_arrivals,
                frac(5, 2),
            )
            .model(ArrivalModel::Exponential),
        ]
    };
    let aggressor = || {
        TenantLoad::new(
            TenantSpec::new("aggressor")
                .weight(1)
                .lane(1)
                .queue_bound(16),
            query.clone(),
            victim_arrivals * 8,
            frac(1, 2),
        )
        .model(ArrivalModel::Exponential)
    };
    let mut isolation = Vec::new();
    for (scenario, with_aggressor, fair) in [
        ("baseline", false, true),
        ("aggressor+wfq", true, true),
        ("aggressor+fifo", true, false),
    ] {
        let mut loads = victims();
        if with_aggressor {
            loads.push(aggressor());
        }
        // compose() sub-seeds per tenant index, so appending the aggressor
        // leaves both victims' arrival schedules bit-identical to baseline.
        let rep = run(&loads, fair)?;
        for t in &rep.tenants {
            isolation.push(ServingTenantPoint {
                scenario,
                fair,
                tenant: t.name.clone(),
                arrivals: t.arrivals,
                completed: t.completed,
                rejected: t.rejected,
                deadline_missed: t.deadline_missed,
                canceled: t.canceled,
                failed: t.failed,
                p50_ms: t.latency.p50.as_secs_f64() * 1e3,
                p99_ms: t.latency.p99.as_secs_f64() * 1e3,
            });
        }
    }
    Ok(ServingResult {
        service_time,
        knee,
        isolation,
    })
}

/// One cell of the chaos matrix: a two-tenant Q6 stream through one
/// scripted gray-failure scenario, under one defense stack.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Fault scenario label.
    pub scenario: &'static str,
    /// Defense stack label: `none`, `breaker`, or `full`.
    pub defense: &'static str,
    /// Total arrivals across both tenants.
    pub arrivals: u64,
    /// Queries that completed (on either route).
    pub completed: u64,
    /// Arrivals shed at admission (brownout).
    pub rejected: u64,
    /// Completed queries per simulated second across the whole stream.
    pub goodput_qps: f64,
    /// Victim (interactive) tenant completions.
    pub victim_completed: u64,
    /// Victim (interactive) tenant 99th-percentile latency, milliseconds.
    pub victim_p99_ms: f64,
    /// Batch tenant completions.
    pub batch_completed: u64,
    /// Batch tenant arrivals shed by brownout.
    pub batch_rejected: u64,
    /// Device-route attempts that fell back to the host mid-run.
    pub fallbacks: u64,
    /// Breaker opens caused by the latency (slow-trip) rule alone.
    pub slow_trips: u64,
    /// Breaker state changes during the stream.
    pub breaker_transitions: u64,
    /// Whether every completed answer is bit-identical to the healthy
    /// run's.
    pub matches_clean: bool,
    /// Fault counters absorbed during the stream.
    pub faults: smartssd_sim::FaultCounters,
}

/// Results of the chaos experiment.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// One clean device-route Q6 run — the unit every schedule is sized in.
    pub service_time: SimTime,
    /// The scenario x defense matrix, scenarios outermost.
    pub points: Vec<ChaosPoint>,
}

impl ChaosResult {
    /// Victim p99 of one `(scenario, defense)` cell, in milliseconds
    /// (0.0 when absent).
    pub fn victim_p99_ms(&self, scenario: &str, defense: &str) -> f64 {
        self.points
            .iter()
            .find(|p| p.scenario == scenario && p.defense == defense)
            .map(|p| p.victim_p99_ms)
            .unwrap_or(0.0)
    }
}

/// Gray-failure chaos matrix (robustness extension; not a paper figure):
/// scripted [`smartssd_sim::FaultPlan`] scenarios crossed with defense
/// stacks, measured at the victim tenant's tail.
///
/// A high-weight `interactive` tenant (the victim whose p99 we protect)
/// and a low-weight `batch` tenant together offer ~50% of the single-slot
/// device capacity. Each scenario scripts one gray failure — a 4x or 16x
/// firmware slowdown that opens after a healthy calibration head and never
/// heals, a mid-stream firmware crash, or a persistent ECC burst doubling
/// every read — and replays the *identical* arrival schedule under three
/// defense stacks: `none`, `breaker` (latency-aware slow-trip routing),
/// and `full` (breaker + brownout shedding of the lightest tenant).
///
/// The acceptance claim: in the slowdown scenarios the victim's p99 is
/// strictly ordered `full < breaker < none` — the breaker stops queueing
/// arrivals behind a gray device it can route around, and brownout stops
/// the victim queueing behind batch work the incident has made unpayable.
/// Every completed answer stays bit-identical in every cell, and the whole
/// matrix is deterministic in the seed.
pub fn chaos_exp(s: &Scales, victim_arrivals: usize) -> Result<ChaosResult, RunError> {
    use smartssd::{BreakerPolicy, BrownoutPolicy};
    use smartssd_sim::FaultPlan;

    let query = q6();
    let service_time = {
        let mut probe = lineitem_system(s, |b| b);
        probe
            .run(&query, RunOptions::routed(Route::Device))?
            .result
            .elapsed
    };
    let frac = |num: u64, den: u64| SimTime::from_nanos(service_time.as_nanos() * num / den);

    // The victim offers ~17% of capacity, batch ~33%: comfortable when
    // healthy (a uniform arrival schedule keeps the healthy queue depth
    // at 0-2, so brownout never fires in the healthy cell), hopeless once
    // a slowdown cuts capacity 4-16x.
    let n = victim_arrivals.max(8);
    let horizon = frac(6 * n as u64, 1);
    // The gray window opens after a healthy head long enough to calibrate
    // the breaker's latency baseline, and never closes: a real gray
    // incident outlives any one stream, so detection and routing are the
    // only way out — there is no healthy tail to bail the no-defense run.
    let win_from = frac(18, 1);
    let win_until = SimTime::MAX;
    let mid = SimTime::from_nanos(horizon.as_nanos() / 2);

    // The slowdown scenarios arm the plan on the device *firmware* only
    // (the embedded CPU throttles; the media path stays healthy) — the
    // canonical gray failure, and the one where routing around the device
    // actually pays. The ECC burst is the media-layer counterpart: it
    // slows the flash itself, which the host block path shares, so no
    // routing escape exists and defenses can only shed load.
    let scenarios: Vec<(&'static str, FaultPlan, bool)> = vec![
        ("healthy", FaultPlan::new(), false),
        (
            "slow4x",
            FaultPlan::new().slowdown(0, 4, win_from, win_until),
            true,
        ),
        (
            "slow16x",
            FaultPlan::new().slowdown(0, 16, win_from, win_until),
            true,
        ),
        ("crash", FaultPlan::new().crash_at(0, mid), false),
        (
            "ecc-burst",
            FaultPlan::new().ecc_burst(0, 0..u64::MAX, win_from, win_until),
            false,
        ),
    ];

    let policy = BreakerPolicy {
        enabled: true,
        failure_threshold: 3,
        window: frac(8, 1),
        // Once tripped, stay host-routed for the rest of the incident: a
        // short cooldown would close the breaker onto the still-gray
        // device, and every re-closure costs two more slowed services
        // before the latency rule can re-trip.
        cooldown: frac(64 * 4, 1),
        // A 2x-sustained latency EWMA opens the breaker with zero hard
        // failures -- the gray-failure case rate-based health misses.
        slow_trip_factor: 2,
        // The healthy head of the stream has ~9 device completions before
        // the window opens; calibrate on the first 6.
        baseline_samples: 6,
    };

    let loads = || {
        vec![
            TenantLoad::new(
                TenantSpec::new("interactive").weight(8),
                query.clone(),
                n,
                frac(6, 1),
            )
            .model(ArrivalModel::Uniform),
            TenantLoad::new(
                TenantSpec::new("batch").weight(1),
                query.clone(),
                2 * n,
                frac(3, 1),
            )
            .model(ArrivalModel::Uniform),
        ]
    };

    let mut clean_answer: Option<Vec<i128>> = None;
    let mut points = Vec::new();
    for (scenario, plan, firmware_only) in &scenarios {
        for defense in ["none", "breaker", "full"] {
            let mut sys = lineitem_system(s, |b| {
                let b = b.tweak(|c| c.smart.max_sessions = 1);
                let b = if *firmware_only {
                    let view = plan.for_device(0);
                    b.tweak(move |c| c.smart.fault_plan = view)
                } else {
                    b.fault_plan(plan)
                };
                if defense == "none" {
                    b
                } else {
                    b.breaker(policy)
                }
            });
            let (workload, tenants) = compose(&loads(), s.seed);
            // Global FIFO admission: the front door most deployments run,
            // and the one where a gray device actually takes the victim
            // down with it — WFQ alone already shields the victim's queue
            // slot, which would mask what each chaos defense buys.
            let mut opts = WorkloadOptions::new().fair_queueing(false);
            for t in tenants {
                opts = opts.tenant(t);
            }
            if defense == "full" {
                opts = opts.brownout(BrownoutPolicy { max_waiting: 2 });
            }
            let rep = sys.run_workload(&workload, opts)?;
            let baseline = clean_answer.get_or_insert_with(|| {
                rep.completions
                    .first()
                    .map(|c| c.result.agg_values.clone())
                    .unwrap_or_default()
            });
            let matches_clean = !rep.completions.is_empty()
                && rep
                    .completions
                    .iter()
                    .all(|c| c.result.agg_values == *baseline);
            let tenant = |name: &str| {
                rep.tenants
                    .iter()
                    .find(|t| t.name == name)
                    .cloned()
                    .unwrap_or_default()
            };
            let (victim, batch) = (tenant("interactive"), tenant("batch"));
            points.push(ChaosPoint {
                scenario,
                defense,
                arrivals: workload.len() as u64,
                completed: rep.completions.len() as u64,
                rejected: rep.rejected,
                goodput_qps: rep.throughput_qps,
                victim_completed: victim.completed,
                victim_p99_ms: victim.latency.p99.as_secs_f64() * 1e3,
                batch_completed: batch.completed,
                batch_rejected: batch.rejected,
                fallbacks: rep.faults.fallbacks,
                slow_trips: rep.faults.slow_trips,
                breaker_transitions: rep.breaker_transitions.len() as u64,
                matches_clean,
                faults: rep.faults,
            });
        }
    }
    Ok(ChaosResult {
        service_time,
        points,
    })
}
