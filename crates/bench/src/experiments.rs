//! Every paper artifact and extension experiment: one function each, one
//! [`REGISTRY`] line each. An experiment builds its systems, runs them, and
//! returns a [`Report`] whose column specs say how the rows print and how
//! they land in `BENCH_<name>.json`; nothing here prints or writes files.

use crate::report::{col, jcol, Cell, Col, Report};
use crate::row;
use crate::scale::Scales;
use smartssd::{
    compose, ArrivalModel, BreakerPolicy, BrownoutPolicy, ChromeTraceSink, CounterSink, DeviceKind,
    InterfaceMode, RunError, RunOptions, RunReport, System, SystemBuilder, TenantLoad, TenantSpec,
    Workload, WorkloadOptions, WorkloadReport,
};
use smartssd_host::interface::{roadmap, RoadmapPoint};
use smartssd_host::{io::IoError, InterfaceKind};
use smartssd_query::{Query, Route};
use smartssd_sim::{FaultPlan, SimTime};
use smartssd_storage::table::build_both_layouts;
use smartssd_storage::{Layout, Schema, TableBuilder, TableImage, Tuple, PAGE_SIZE};
use smartssd_workload::{
    join_query, q1, q14, q6, queries, synthetic::synthetic_schema, synthetic64_r, synthetic64_s,
    tpch,
};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex, PoisonError};

/// What an experiment is handed: the scales `--quick` selects, the raw
/// flags for experiments that size their own sweeps, and the name of the
/// BENCH file `repro` writes for it.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload scales (`--quick` selects [`Scales::quick`]).
    pub scales: Scales,
    /// `--quick` was given.
    pub quick: bool,
    /// `--smoke` was given (smallest sweep point only).
    pub smoke: bool,
    /// `BENCH_<name>.json`, for "wrote ..." notes.
    pub bench: String,
}

/// One `repro` subcommand.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line description, printed by `repro list`.
    pub about: &'static str,
    /// Part of `repro all` (the byte-pinned clean reproduction).
    pub in_all: bool,
    /// Whether `repro` writes the report to [`Self::bench_file`].
    pub bench: bool,
    /// Runs the experiment.
    pub run: fn(&Ctx) -> Result<Report, RunError>,
}

impl Experiment {
    /// The BENCH file this experiment's report is written to.
    pub fn bench_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The context `repro [--quick] [--smoke] <name>` runs under.
    pub fn ctx(&self, quick: bool, smoke: bool) -> Ctx {
        let scales = if quick {
            Scales::quick()
        } else {
            Scales::default()
        };
        Ctx {
            scales,
            quick,
            smoke,
            bench: self.bench_file(),
        }
    }
}

/// The registry entry named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Which tables a system carries.
#[derive(Clone, Copy)]
enum Tables {
    /// LINEITEM and PART.
    Tpch,
    /// LINEITEM only (PART would only add unread pages).
    Lineitem,
    /// The synthetic join's R and S.
    Synth,
}

impl Tables {
    /// The tables, in load order (which fixes their LBAs).
    fn members(self) -> &'static [Table] {
        match self {
            Tables::Tpch => &[Table::Lineitem, Table::Part],
            Tables::Lineitem => &[Table::Lineitem],
            Tables::Synth => &[Table::SynthR, Table::SynthS],
        }
    }
}

/// One generated table.
#[derive(Clone, Copy, PartialEq)]
enum Table {
    Lineitem,
    Part,
    SynthR,
    SynthS,
}

impl Table {
    fn name(self) -> &'static str {
        match self {
            Table::Lineitem => queries::LINEITEM,
            Table::Part => queries::PART,
            Table::SynthR => queries::SYNTH_R,
            Table::SynthS => queries::SYNTH_S,
        }
    }

    /// The scale of `s` this table is generated at.
    fn scale(self, s: &Scales) -> f64 {
        match self {
            Table::Lineitem | Table::Part => s.tpch_sf,
            Table::SynthR | Table::SynthS => s.synth_scale,
        }
    }

    /// The table's schema and its rows at `scale`, from `seed`.
    fn rows(self, scale: f64, seed: u64) -> (Arc<Schema>, Box<dyn Iterator<Item = Tuple>>) {
        match self {
            Table::Lineitem => (
                tpch::lineitem_schema(),
                Box::new(tpch::lineitem_rows(scale, seed)),
            ),
            Table::Part => (tpch::part_schema(), Box::new(tpch::part_rows(scale, seed))),
            Table::SynthR => (synthetic_schema(), Box::new(synthetic64_r(scale, seed))),
            Table::SynthS => (
                synthetic_schema(),
                Box::new(synthetic64_s(scale, scale, seed)),
            ),
        }
    }
}

/// What fixes a table image's bytes: the table, the layout, the scale (as
/// bits) and the seed.
type ImageKey = (Table, Layout, u64, u64);

/// Every table image built in this process. Experiments load the same few
/// tables into hundreds of systems; an image is immutable and its pages
/// are reference counted, so each is built once and every load shares its
/// pages. Loading a built image is what `System::load_table_rows` does
/// after building it, so no figure moves.
static IMAGES: Mutex<Vec<(ImageKey, Arc<TableImage>)>> = Mutex::new(Vec::new());

/// The image of `table` at scale `s` in `layout`, built on first use. An
/// NSM image whose PAX twin is not built yet is built with it, from one
/// pass over the rows, and both are kept: the experiments load tables in
/// both layouts (NSM on the host baselines, PAX on the Smart SSD). A PAX
/// image is built alone.
fn image(table: Table, layout: Layout, s: &Scales) -> Arc<TableImage> {
    let (scale, seed) = (table.scale(s), s.seed);
    let key = |layout| (table, layout, scale.to_bits(), seed);
    // The one update is a push of a finished entry, so the list is whole
    // even if a thread panicked while holding the lock.
    let mut images = IMAGES.lock().unwrap_or_else(PoisonError::into_inner);
    let cached = |images: &[(ImageKey, Arc<TableImage>)], layout| {
        let found = images.iter().find(|(k, _)| *k == key(layout));
        found.map(|(_, img)| Arc::clone(img))
    };
    if let Some(img) = cached(&images, layout) {
        return img;
    }
    let (schema, rows) = table.rows(scale, seed);
    let built = if layout == Layout::Nsm && cached(&images, Layout::Pax).is_none() {
        let (nsm, pax) = build_both_layouts(table.name(), &schema, || rows);
        images.push((key(Layout::Pax), Arc::new(pax)));
        nsm
    } else {
        let mut b = TableBuilder::new(table.name(), schema, layout);
        b.extend(rows);
        b.finish()
    };
    let built = Arc::new(built);
    images.push((key(layout), Arc::clone(&built)));
    built
}

/// Builds `b` and loads `tables` at scale `s`, cold.
fn load(b: SystemBuilder, tables: Tables, s: &Scales) -> Result<System, RunError> {
    let mut sys = b.build();
    let layout = sys.config().layout;
    for &table in tables.members() {
        sys.load_table(table.name(), &image(table, layout, s))?;
    }
    sys.finish_load();
    Ok(sys)
}

/// Why the infallible builders below (the criterion benches' entry points)
/// may `expect`: a load fails only on a layout mismatch or a full device,
/// and [`load`] builds pages in the system's own layout onto an empty
/// default-capacity device that the bench scales fill to a few percent.
const LOAD_FITS: &str = "bench-scale tables fit a fresh device in its own layout";

/// Builds a system with LINEITEM and PART loaded, cold.
pub fn tpch_system(kind: DeviceKind, layout: Layout, s: &Scales) -> System {
    load(SystemBuilder::new(kind, layout), Tables::Tpch, s).expect(LOAD_FITS)
}

/// Builds a system with the synthetic join tables loaded, cold.
pub fn synth_system(kind: DeviceKind, layout: Layout, s: &Scales) -> System {
    load(SystemBuilder::new(kind, layout), Tables::Synth, s).expect(LOAD_FITS)
}

/// A Smart SSD (PAX) builder — the device every extension experiment tunes.
fn smart() -> SystemBuilder {
    SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
}

/// A regular SSD (NSM) builder — the paper's host-execution baseline.
fn ssd() -> SystemBuilder {
    SystemBuilder::new(DeviceKind::Ssd, Layout::Nsm)
}

/// The scales of a fixed `rows`-row LINEITEM slice (not scaled by
/// `--quick`, so throughput numbers are comparable across runs).
fn slice(rows: u64, seed: u64) -> Scales {
    Scales {
        tpch_sf: rows as f64 / tpch::LINEITEM_ROWS_SF1 as f64,
        synth_scale: 0.0,
        seed,
    }
}

fn secs(r: &RunReport) -> f64 {
    r.result.elapsed.as_secs_f64()
}

/// The busiest component of a run and its utilization, from its counters.
fn bound(r: &RunReport) -> String {
    r.util
        .bottleneck()
        .map_or_else(|| "-".into(), |(name, util)| format!("{name} {util:.2}"))
}

fn ms(t: SimTime) -> f64 {
    t.as_secs_f64() * 1e3
}

/// `t * num / den`: experiments size gaps, deadlines and breaker windows
/// in units of one measured service time, so their shape is scale-invariant.
fn frac(t: SimTime, num: u64, den: u64) -> SimTime {
    SimTime::from_nanos(t.as_nanos() * num / den)
}

/// One clean Q6 run on `route`: the unit the serving experiments size in.
fn service_time(sys: &mut System, route: Route) -> Result<SimTime, RunError> {
    Ok(sys.run(&q6(), RunOptions::routed(route))?.result.elapsed)
}

/// One default-routed run of `query` on a freshly loaded (cold) system.
fn cold_run(
    b: SystemBuilder,
    tables: Tables,
    s: &Scales,
    query: &Query,
) -> Result<RunReport, RunError> {
    load(b, tables, s)?.run(query, RunOptions::default())
}

/// The configurations of the paper's three-bar figures, in figure order.
const TRIO: [(DeviceKind, Layout, &str); 3] = [
    (DeviceKind::Ssd, Layout::Nsm, "SAS SSD (NSM)"),
    (DeviceKind::SmartSsd, Layout::Nsm, "Smart SSD (NSM)"),
    (DeviceKind::SmartSsd, Layout::Pax, "Smart SSD (PAX)"),
];

fn trio(tables: Tables, s: &Scales) -> Result<Vec<System>, RunError> {
    TRIO.iter()
        .map(|&(kind, layout, _)| load(SystemBuilder::new(kind, layout), tables, s))
        .collect()
}

/// Runs `query` on every system under the paper's cold protocol (nothing
/// cached between runs): elapsed seconds per system, and the last report.
fn run_cold(systems: &mut [System], query: &Query) -> Result<(Vec<f64>, RunReport), RunError> {
    let mut reports = Vec::new();
    for sys in systems {
        sys.clear_cache();
        reports.push(sys.run(query, RunOptions::default())?);
    }
    let times = reports.iter().map(secs).collect();
    // `trio` never builds an empty set, so there is a last report.
    Ok((times, reports.pop().expect("at least one system")))
}

/// Figure 1: host-interface vs SSD-internal bandwidth trend.
pub fn fig1() -> Vec<RoadmapPoint> {
    roadmap()
}

fn fig1_trend(_: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  year", "  {}"),
        col("   host-interface", "   {:>14.2}"),
        col("   ssd-internal", "   {:>12.2}"),
        col("   gap", "   {:>4.1}x"),
    ];
    let mut r = Report::new("Figure 1: bandwidth trends (relative to 375 MB/s in 2007)");
    let rows = fig1()
        .into_iter()
        .map(|p| row![p.year, p.host_rel, p.internal_rel, p.gap()]);
    r.table("", COLS, rows.collect());
    Ok(r)
}

/// Table 2: maximum sequential read bandwidth with 32-page (256 KB) I/Os,
/// `[external, internal]` MB/s — the SAS SSD through the host interface vs
/// the Smart SSD reading into its own DRAM.
pub fn tab2() -> Result<[f64; 2], RunError> {
    use smartssd_flash::{FlashConfig, FlashSsd};
    use smartssd_host::{PageSource, SsdHostPath};
    use smartssd_storage::{DataType, Datum, Schema, TableBuilder};
    let n: u64 = 8192;
    // A real formatted page so the host path's validation passes.
    let page = {
        let mut b = TableBuilder::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int64)]),
            Layout::Nsm,
        );
        b.extend([vec![Datum::I64(0)]]);
        b.finish().pages()[0].clone()
    };
    let filled = || -> Result<FlashSsd, IoError> {
        let mut ssd = FlashSsd::new(FlashConfig::default());
        for lba in 0..n {
            ssd.write(lba, page.raw().clone(), SimTime::ZERO)
                .map_err(IoError::Flash)?;
        }
        ssd.reset_timing();
        Ok(ssd)
    };
    let mbps = |done: SimTime| (n * PAGE_SIZE as u64) as f64 / done.as_secs_f64() / 1e6;
    // Internal: read pages straight into device DRAM.
    let mut ssd = filled()?;
    let mut done = SimTime::ZERO;
    for lba in 0..n {
        let (_, busy) = ssd.read(lba, SimTime::ZERO).map_err(IoError::Flash)?;
        done = done.max(busy.end);
    }
    let internal = mbps(done);
    // External: same device behind the SAS link.
    let mut path = SsdHostPath::new(filled()?, InterfaceKind::Sas6, 0);
    let mut done = SimTime::ZERO;
    for lba in 0..n {
        done = done.max(path.read_page(lba, SimTime::ZERO)?.1);
    }
    Ok([mbps(done), internal])
}

fn tab2_bandwidth(_: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("                      ", "  {:<20}"),
        col("measured[MB/s]", "{:>14.0}"),
        col("   paper[MB/s]", "   {:>10}"),
    ];
    let [external, internal] = tab2()?;
    let mut r = Report::new("Table 2: max sequential read bandwidth, 32-page (256KB) I/Os");
    let rows = vec![
        row!["SAS SSD (external)", external, 550u64],
        row!["Smart SSD (internal)", internal, 1560u64],
    ];
    r.table("", COLS, rows);
    r.note(format!(
        "  ratio               {:>13.2}x   {:>9.1}x",
        internal / external,
        2.8
    ));
    Ok(r)
}

/// A three-bar elapsed-time figure: `query` on [`TRIO`], projected to the
/// paper's SF 100 by the page-count ratio.
fn bars(title: &str, query: &Query, paper_speedup: f64, s: &Scales) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  config             ", "  {:<19}"),
        col("measured[s]", "{:>10.3}"),
        col("   projected-to-paper[s]", "   {:>12.1}"),
    ];
    let (t, pax) = run_cold(&mut trio(Tables::Tpch, s)?, query)?;
    let mut r = Report::new(title);
    let rows = TRIO.iter().zip(&t);
    r.table(
        "",
        COLS,
        rows.map(|(&(_, _, label), &t)| row![label, t, t * s.tpch_projection()])
            .collect(),
    );
    r.note(format!(
        "  speedup: PAX {:.2}x (paper ~{paper_speedup:.1}x), NSM {:.2}x",
        t[0] / t[2],
        t[0] / t[1]
    ));
    r.note(format!(
        "  device-cpu util (PAX run): {:.0}%",
        pax.util.utilization("device-cpu").unwrap_or(0.0) * 100.0
    ));
    Ok(r)
}

/// Figure 3: TPC-H Q6 elapsed time (paper: PAX 1.7x over the SSD).
fn fig3(c: &Ctx) -> Result<Report, RunError> {
    bars("Figure 3: TPC-H Q6 elapsed time", &q6(), 1.7, &c.scales)
}

/// Figure 7: TPC-H Q14 elapsed time (paper: PAX 1.3x over the SSD).
fn fig7(c: &Ctx) -> Result<Report, RunError> {
    bars("Figure 7: TPC-H Q14 elapsed time", &q14(), 1.3, &c.scales)
}

/// Figure 5: the selection-with-join query swept over selectivity (paper:
/// up to 2.2x at 1%, saturating toward 1x at 100%). Each system is built
/// once and reused across the sweep: only the predicate literal changes.
fn fig5(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  sel%", "  {:>4.0}"),
        col("    SSD[s]", "  {:>8.3}"),
        col("   SmartNSM[s]", "   {:>11.3}"),
        col("   SmartPAX[s]", "   {:>11.3}"),
        col("   PAX-speedup (paper: 2.2x@1% -> ~1x@100%)", "   {:>6.2}x"),
    ];
    let mut systems = trio(Tables::Synth, &c.scales)?;
    let mut rows = Vec::new();
    for sel in [0.01, 0.10, 0.25, 0.50, 1.00] {
        let (t, _) = run_cold(&mut systems, &join_query(sel))?;
        rows.push(row![sel * 100.0, t[0], t[1], t[2], t[0] / t[2]]);
    }
    let mut r = Report::new("Figure 5: selection-with-join elapsed time vs selectivity");
    r.table("", COLS, rows);
    Ok(r)
}

/// Table 3: elapsed time and energy for TPC-H Q6 on all four
/// configurations, and the paper's ratios against the Smart SSD (PAX).
fn tab3(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  config           ", "  {:<17}"),
        col(" elapsed[s]", " {:>9.3}"),
        col("  system[kJ]", "  {:>9.4}"),
        col("  io[kJ]", "  {:>6.4}"),
        col("  over-idle[kJ]", "  {:>9.4}"),
    ];
    let hdd = (DeviceKind::Hdd, Layout::Nsm, "SAS HDD");
    let ssd = (DeviceKind::Ssd, Layout::Nsm, "SAS SSD");
    let mut energy = Vec::new();
    let mut rows = Vec::new();
    for (kind, layout, label) in [hdd, ssd, TRIO[1], TRIO[2]] {
        let rep = cold_run(
            SystemBuilder::new(kind, layout),
            Tables::Tpch,
            &c.scales,
            &q6(),
        )?;
        let e = [
            rep.energy.system_kj(),
            rep.energy.io_kj(),
            rep.energy.over_idle_kj(),
        ];
        rows.push(row![label, secs(&rep), e[0], e[1], e[2]]);
        energy.push(e);
    }
    let mut r = Report::new("Table 3: energy for TPC-H Q6");
    r.table("", COLS, rows);
    r.note("  ratios vs Smart SSD (PAX)        paper");
    let papers = [["11.6x", "14.3x", "12.4x"], ["1.9x", "1.4x", "2.3x"]];
    for (i, (dev, prec)) in [("HDD", 1), ("SSD", 2)].into_iter().enumerate() {
        for (j, meter) in ["system", "io", "o-idle"].into_iter().enumerate() {
            r.note(format!(
                "    {:<12}{:>5.prec$}x{:>18}",
                format!("{dev} {meter}"),
                energy[i][j] / energy[3][j],
                papers[i][j]
            ));
        }
    }
    Ok(r)
}

/// The plan diagrams of Figures 4 and 6, as text.
fn plans(_: &Ctx) -> Result<Report, RunError> {
    let text = format!(
        "{}\n{}\n{}",
        join_query(0.01).describe_pushdown(),
        q14().describe_pushdown(),
        q6().describe_pushdown()
    );
    let mut r = Report::new("Figures 4 & 6: pushdown query plans");
    r.note(text.strip_suffix('\n').unwrap_or(&text));
    Ok(r)
}

/// The companion paper \[7\]'s single-table-scan sweeps: selectivity x
/// {row-returning, aggregating}.
fn scan_sweep(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  mode", "  {}"),
        col("  sel%", "  {:>5.1}"),
        col("    SSD[s]", "  {:>8.3}"),
        col("   SmartPAX[s]", "   {:>11.3}"),
        col("   speedup", "   {:>6.2}x"),
    ];
    let mut systems = trio(Tables::Synth, &c.scales)?;
    let mut rows = Vec::new();
    for (with_agg, mode) in [(false, "rows"), (true, "agg ")] {
        for sel in [0.001, 0.01, 0.10, 1.00] {
            let query = smartssd_workload::scan_sweep(sel, with_agg, 4);
            let (t, _) = run_cold(&mut systems, &query)?;
            rows.push(row![mode, sel * 100.0, t[0], t[2], t[0] / t[2]]);
        }
    }
    let mut r = Report::new("[7] single-table scan sweep (selectivity x aggregation)");
    r.table("", COLS, rows);
    Ok(r)
}

/// Builds a LINEITEM-loaded array of `n` Smart SSDs, cold.
fn tpch_fleet(n: usize, s: &Scales, breaker: bool) -> Result<System, RunError> {
    let mut b = smart().devices(n);
    if breaker {
        let mut pol = BreakerPolicy::enabled();
        // A dead-device probe costs a full firmware reset wait (~5 ms,
        // several query lifetimes), so probe sparingly: the default 8 ms
        // cooldown would re-probe nearly every query.
        pol.cooldown = SimTime::from_micros(1_000_000);
        b = b.breaker(pol);
    }
    let mut fleet = b.build();
    fleet.load_partitioned(
        queries::LINEITEM,
        &tpch::lineitem_schema(),
        tpch::lineitem_rows(s.tpch_sf, s.seed),
    )?;
    fleet.finish_load();
    Ok(fleet)
}

/// Discussion-section extension (paper Section 4.3): Q6-shaped aggregation
/// over a LINEITEM partitioned across an array of 1 to 64 Smart SSDs, the
/// coordinator the paper sketches, scattered and gathered over the full
/// linked protocol — one cold run per array size, speedup measured
/// against the single device. Gather serialization on the one shared link
/// caps the deepest fan-out. Then Figure 7's Q14 and Q1 on the same
/// arrays, with PART loaded whole on every device: each device builds
/// Q14's hash table on all of PART and probes its LINEITEM share, and Q1's
/// group rows are folded by key on the host. Each of those rows names its
/// run's bottleneck, metered on the first device.
fn array(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  devices", "  {:>7}"),
        col("   elapsed[s]", "   {:>10.6}"),
        col("   speedup", "   {:>6.2}x"),
    ];
    const FIG7: &[Col] = &[
        col("  devices", "  {:>7}"),
        col("     Q14[s]", "   {:>8.6}"),
        col("   speedup", "   {:>6.2}x"),
        col("   Q14 bound          ", "   {:<19}"),
        col("      Q1[s]", "   {:>8.6}"),
        col("   speedup", "   {:>6.2}x"),
        col("   Q1 bound", "   {}"),
    ];
    let device = || RunOptions::routed(Route::Device);
    let (mut rows, mut fig7) = (Vec::new(), Vec::new());
    let (mut base, mut base14, mut base1) = (None, None, None);
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut fleet = tpch_fleet(n, &c.scales, false)?;
        let t = fleet.run(&q6(), device())?.result.elapsed.as_secs_f64();
        rows.push(row![n, t, *base.get_or_insert(t) / t]);
        let part = image(Table::Part, Layout::Pax, &c.scales);
        fleet.load_table(Table::Part.name(), &part)?;
        fleet.finish_load();
        let (r14, r1) = (fleet.run(&q14(), device())?, fleet.run(&q1(), device())?);
        let (t14, t1) = (secs(&r14), secs(&r1));
        let (b14, b1) = (*base14.get_or_insert(t14), *base1.get_or_insert(t1));
        fig7.push(row![
            n,
            t14,
            b14 / t14,
            bound(&r14),
            t1,
            b1 / t1,
            bound(&r1)
        ]);
    }
    let mut r = Report::new("Discussion: Q6 across an array of Smart SSDs");
    r.table("", COLS, rows);
    r.note("Q14 and Q1 on the same arrays, LINEITEM partitioned and PART whole on every device:");
    r.table("", FIG7, fig7);
    Ok(r)
}

/// Discussion-section extension: Q6 on the Smart SSD with 0..100% of
/// LINEITEM pre-cached, routed by the planner. Caching is a cost the
/// planner weighs, not a rule: a resident page spares the host its
/// transfer, but the host's CPU still costs more than the device's whole
/// run, so Q6 stays on the device at every residency.
fn cache(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  resident%", "  {:>8.0}"),
        col("   route  ", "   {:<7}"),
        col("  elapsed[s]", "  {:>9.3}"),
    ];
    let mut rows = Vec::new();
    for resident in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut sys = load(smart(), Tables::Tpch, &c.scales)?;
        sys.warm_cache(queries::LINEITEM, resident)?;
        let rep = sys.run(&q6(), RunOptions::planned())?;
        rows.push(row![
            resident * 100.0,
            format!("{:?}", rep.route),
            secs(&rep)
        ]);
    }
    let mut r = Report::new("Discussion: pushdown vs buffer-pool residency (planner-routed Q6)");
    r.table("", COLS, rows);
    Ok(r)
}

/// Section 5's device profiles: (label, cores, MHz, flash channels, channel
/// MB/s, DRAM-bus MB/s). The first is the paper's prototype.
const PROFILES: [(&str, usize, u64, usize, u64, u64); 5] = [
    ("paper prototype", 2, 400, 8, 400, 1_600),
    ("more cores", 8, 400, 8, 400, 1_600),
    ("faster cores", 8, 1_000, 8, 400, 1_600),
    ("wider internal path", 8, 1_000, 16, 800, 6_400),
    ("projected device", 16, 1_600, 32, 800, 12_800),
];

/// One machine of the co-design grid: (Smart SSD, device profile as an
/// index into [`PROFILES`], host interface, host scan DOP).
type Bed = (bool, usize, InterfaceKind, usize);

/// The Smart SSD (PAX) or the SAS SSD (NSM) of `bed`. The grid keys every
/// SAS SSD on the paper's profile, so its device stays the paper's.
fn bed((smart_ssd, profile, interface, dop): Bed) -> SystemBuilder {
    let (_, cores, mhz, channels, ch_mbps, dram_mbps) = PROFILES[profile];
    let b = if smart_ssd { smart() } else { ssd() };
    b.interface(interface).host_dop(dop).tweak(|cfg| {
        cfg.smart.cpu_cores = cores;
        cfg.smart.cpu_hz = mhz * 1_000_000;
        cfg.flash.channels = channels;
        cfg.flash.channel_bw = ch_mbps * 1_000_000;
        cfg.flash.dram_bw = dram_mbps * 1_000_000;
    })
}

/// Section 5's what-ifs as one grid. The paper: more device hardware is
/// "absolutely crucial to achieve the 10X or more benefit"; Section 3's
/// protocol "could be extended for PCIe"; its host baseline scans on one
/// thread. Each row moves one axis off the paper's test bed (device
/// profile, interface generation, host DOP) and runs Q6, the Figure 5 join
/// at 1 % and Q14 cold on the SAS SSD at the row's interface and DOP, and
/// on the Smart SSD at the row's profile, interface and DOP. Each route's
/// bound is its run's busiest component.
fn codesign(c: &Ctx) -> Result<Report, RunError> {
    use InterfaceKind::{PcieGen2x4, PcieGen3x4, Sas12, Sas3, Sas6};
    const PROFILE_COLS: &[Col] = &[
        col("  profile              ", "  {:<20}"),
        col("  cores", " {:>6}"),
        col("   MHz", "  {:>4}"),
        col("   internal[MB/s]", "   {:>13}"),
    ];
    const COLS: &[Col] = &[
        col("  axis       ", "  {:<11}"),
        col("setting             ", "{:<20}"),
        col("  SSD[s]", "{:>8.3}"),
        col("   SmartSSD[s]", "   {:>11.3}"),
        col("   speedup", "   {:>6.2}x"),
        col("   SSD bound           ", "   {:<20}"),
        col("   SmartSSD bound", "   {}"),
    ];
    let devices = PROFILES.iter().enumerate();
    let devices = devices.map(|(i, p)| ("device", p.0.to_string(), (true, i, Sas6, 1)));
    let links = [Sas3, Sas6, Sas12, PcieGen2x4, PcieGen3x4];
    let links = links.map(|i| ("interface", format!("{i:?}"), (true, 0, i, 1)));
    let dops = [1, 2, 4, 8].map(|dop| ("host DOP", dop.to_string(), (true, 0, Sas6, dop)));
    let axes: Vec<(&str, String, Bed)> = devices.chain(links).chain(dops).collect();
    let mut r = Report::new("Section 5 co-design grid: one axis off the paper's test bed per row");
    let profiles = PROFILES.map(|(p, cores, mhz, .., dram)| row![p, cores, mhz, dram]);
    r.table("", PROFILE_COLS, profiles.into());
    let q6 = q6();
    for (query, tables) in [
        (&q6, Tables::Lineitem),
        (&join_query(0.01), Tables::Synth),
        (&q14(), Tables::Tpch),
    ] {
        let (mut runs, mut rows) = (HashMap::new(), Vec::new());
        for (axis, setting, dev) in &axes {
            let host = (false, 0, dev.2, dev.3);
            for key in [host, *dev] {
                if let Entry::Vacant(run) = runs.entry(key) {
                    let rep = cold_run(bed(key), tables, &c.scales, query)?;
                    run.insert((secs(&rep), bound(&rep)));
                }
            }
            let ((h, hb), (d, db)) = (runs[&host].clone(), runs[dev].clone());
            rows.push(row![*axis, setting.clone(), h, d, h / d, hb, db]);
        }
        let tenx = rows[..PROFILES.len()].iter().find(|r| r[4].num() >= 10.0);
        let tenx = tenx.filter(|_| query.name == q6.name).map(|row| {
            let (profile, x) = (row[1].text(), row[4].num());
            format!("  Q6 first reaches the 10X on \"{profile}\" ({x:.2}x)")
        });
        r.note(format!("{}:", query.name));
        r.table("", COLS, rows);
        if let Some(line) = tenx {
            r.note(line);
        }
    }
    Ok(r)
}

/// Extension: grouped aggregation (TPC-H Q1) pushed into the device. On the
/// paper-era prototype it only breaks even (every row aggregates, the
/// embedded CPU saturates); on a scaled device it wins — Section 5's
/// hardware argument applied to a heavier operator.
fn q1_groups(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("", "  {:<24}"),
        col("", "{:>8.3}s"),
        col("", "   ({:.2}x)"),
    ];
    let (query, s) = (q1(), &c.scales);
    let host = secs(&cold_run(ssd(), Tables::Tpch, s, &query)?);
    let dev = cold_run(smart(), Tables::Tpch, s, &query)?;
    let big = smart().tweak(|cfg| {
        cfg.smart.cpu_cores = 8;
        cfg.smart.cpu_hz = 1_000_000_000;
        cfg.flash.channels = 16;
        cfg.flash.dram_bw = 6_400_000_000;
    });
    let scaled = secs(&cold_run(big, Tables::Lineitem, s, &query)?);
    let mut r = Report::new("Extension: grouped aggregation (TPC-H Q1) pushdown");
    let rows = vec![
        row!["SAS SSD (host)", host, Cell::Skip],
        row!["Smart SSD (prototype)", secs(&dev), host / secs(&dev)],
        row!["Smart SSD (scaled)", scaled, host / scaled],
    ];
    r.table("", COLS, rows);
    r.note("  groups (flag status | sum_qty sum_base sum_disc sum_charge count):");
    for g in &dev.result.rows {
        r.note(format!(
            "    {} {}  | {} {} {} {} {}",
            g[0], g[1], g[2], g[3], g[4], g[5], g[6]
        ));
    }
    r.note("  (every row aggregates, so the paper-era device CPU saturates at");
    r.note("   break-even; Section 5's bigger device makes the operator pay off)");
    Ok(r)
}

/// The `chaos` report's first fault table: one cold Q6 pushdown per
/// injected flash-fault rate. Recovery is about *time*, never answers —
/// every scenario must produce rows and aggregates bit-identical to the
/// clean run, while the counters and elapsed times show what the recovery
/// machinery paid.
fn flash_rates(c: &Ctx, r: &mut Report) -> Result<(), RunError> {
    const COLS: &[Col] = &[
        col("  scenario          ", "  {:<18}").key("scenario", 0),
        jcol("ecc_retry_rate", 0),
        jcol("silent_corruption_rate", 0),
        col("  route", " {:>6}").key("route", 0),
        col("   elapsed[s]", "   {:>10.3}").key("elapsed_secs", 9),
        col("   match", "   {:>5}")
            .key("matches_clean", 0)
            .words("yes", "NO"),
        col("   retries", "   {:>7}"),
        col("  escapes", "  {:>7}"),
        col("  fallbacks", "  {:>9}"),
        jcol("faults", 0),
    ];
    // (label, correctable-read-error rate, silent-corruption rate), per
    // read out of 2^32.
    const SCENARIOS: &[(&str, u32, u32)] = &[
        ("clean", 0, 0),
        ("ecc-retries", u32::MAX / 64, 0),
        ("silent-corruption", 0, u32::MAX / 256),
        ("mixed", u32::MAX / 64, u32::MAX / 256),
    ];
    let mut clean = None;
    let mut rows = Vec::new();
    for &(label, ecc, silent) in SCENARIOS {
        let b = smart().fault_rates(ecc, 0, silent);
        let rep = cold_run(b, Tables::Lineitem, &c.scales, &q6())?;
        let answer = (rep.result.rows.clone(), rep.result.agg_values.clone());
        let matches = answer == *clean.get_or_insert_with(|| answer.clone());
        let f = &rep.faults;
        rows.push(row![
            label,
            ecc,
            silent,
            format!("{:?}", rep.route),
            secs(&rep),
            matches,
            f.read_retries + f.ecc_retries,
            f.escapes_detected,
            f.fallbacks,
            Cell::Raw(f.to_json()),
        ]);
    }
    r.note("  flash-fault rates (one cold Q6 pushdown per scenario):");
    r.table("flash_rates", COLS, rows);
    r.note("  (results are bit-identical under faults; recovery costs time, not answers)");
    Ok(())
}

/// Section 5's "impact of concurrent queries": N simultaneous Q6 pushdown
/// sessions on one device, device-side scan sharing off vs on, on two
/// devices; each curve's slowdown is against its single-session makespan.
///
/// On the paper-era prototype (2 cores at 400 MHz) the embedded CPU is the
/// bottleneck at ~99% utilization, so sharing the flash reads barely bends
/// the curve — the serialization the paper's Section 5 worries about is
/// real. On a Section 5 scaled device (8 cores at 1 GHz, same flash) the
/// flash path dominates instead, and scan sharing collapses the N-session
/// flash traffic to ~1x: the slowdown curve flattens well below N.
fn concurrency(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  config           ", "  {:<17}")
            .key("config", 0)
            .group(),
        jcol("cores", 0).group(),
        jcol("mhz", 0).group(),
        col(" sharing", " {:>7}")
            .key("shared_scans", 0)
            .group()
            .words("on", "off"),
        col("  sessions", "  {:>8}").key("sessions", 0),
        col("  makespan[s]", "  {:>11.3}").key("makespan_secs", 9),
        col("  slowdown", "  {:>7.2}x").key("slowdown", 4),
        jcol("throughput_qps", 3),
        jcol("p50_ms", 6),
        col("  p95[ms]", "  {:>7.2}").key("p95_ms", 6),
        jcol("p99_ms", 6),
        col("  flash-reads", "  {:>11}").key("flash_reads", 0),
        col("  shared-hits", "  {:>11}").key("shared_hits", 0),
    ];
    let mut rows = Vec::new();
    // The scaled device is the "faster cores" profile. A burst runs under
    // device-only timing: with the interface out of the picture, the curve
    // isolates device-internal contention (embedded CPU and flash path).
    let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);
    for (config, profile) in [("paper prototype", 0), ("scaled device", 2)] {
        let (_, cores, mhz, ..) = PROFILES[profile];
        for shared in [false, true] {
            let mut base = None;
            for n in [1usize, 2, 4, 8] {
                let b = bed((true, profile, InterfaceKind::Sas6, 1)).shared_scans(shared);
                let b = b.tweak(|cfg| cfg.smart.max_sessions = n.max(4));
                let burst = Workload::burst(&q6(), n);
                let rep =
                    load(b, Tables::Lineitem, &c.scales)?.run_workload(&burst, opts.clone())?;
                let t = rep.makespan.as_secs_f64();
                rows.push(row![
                    config,
                    cores,
                    mhz,
                    shared,
                    n,
                    t,
                    t / *base.get_or_insert(t),
                    rep.throughput_qps,
                    ms(rep.latency.p50),
                    ms(rep.latency.p95),
                    ms(rep.latency.p99),
                    rep.flash_reads,
                    rep.shared_hits,
                ]);
            }
        }
    }
    let mut r = Report::new("Workload: N concurrent Q6 streams, scan sharing off vs on");
    r.field("query", "q6");
    r.field("interface_mode", "direct");
    r.table("curves/points", COLS, rows);
    r.note("  (on the prototype the embedded CPU serializes sessions with or without");
    r.note("   sharing; on the scaled device the flash path dominates, and sharing");
    r.note("   the scan collapses N sessions to ~1x flash traffic)");
    r.note(format!("  wrote {}", c.bench));
    Ok(r)
}

/// Whether every completion of `rep` carries the aggregates of the first
/// completion this was ever called with (`clean`, filled on first use).
fn matches_clean(clean: &mut Option<Vec<i128>>, rep: &WorkloadReport) -> bool {
    let answers = || rep.completions.iter().map(|c| &c.result.agg_values);
    let baseline = clean.get_or_insert_with(|| answers().next().cloned().unwrap_or_default());
    !rep.completions.is_empty() && answers().all(|a| a == baseline)
}

/// The `chaos` report's second fault table: graceful degradation under
/// sustained device faults. A 16-query Q6 open stream over the linked
/// protocol, swept across crash/ECC fault rates with the circuit breaker
/// off and on. With the breaker off every arrival still probes the
/// crashing firmware, pays the wasted `OPEN` transfer plus reset downtime,
/// and only then falls back to the host; with it on, sustained failures
/// trip the breaker and later arrivals route straight to the host-side
/// block path (a separate failure domain), so throughput degrades smoothly
/// instead of cliff-collapsing. Completed answers stay bit-identical to
/// the clean run in every cell.
fn crash_rates(c: &Ctx, r: &mut Report) -> Result<(), RunError> {
    const COLS: &[Col] = &[
        col("  scenario   ", "  {:<11}").key("scenario", 0),
        jcol("crash_rate", 0),
        jcol("ecc_retry_rate", 0),
        col("  breaker", " {:>7}")
            .key("breaker", 0)
            .words("on", "off"),
        col("  done", "  {:>4}").key("completed", 0),
        col("  rej", "  {:>3}").key("rejected", 0),
        col("  late", "  {:>4}").key("deadline_missed", 0),
        col("  thruput[qps]", "  {:>12.3}").key("throughput_qps", 6),
        col("  makespan[s]", "  {:>11.3}").key("makespan_secs", 9),
        col("  p95[ms]", "  {:>7.2}").key("p95_ms", 6),
        col("  fallbacks", "  {:>9}").key("fallbacks", 0),
        col("  trips", "  {:>5}").key("breaker_transitions", 0),
        col("  match", "  {:>5}")
            .key("matches_clean", 0)
            .words("yes", "NO"),
        jcol("faults", 0),
    ];
    // (label, whole-device crash rate per session open, correctable
    // flash-read-error rate per read), out of 2^32.
    const SCENARIOS: &[(&str, u32, u32)] = &[
        ("clean", 0, 0),
        ("light", u32::MAX / 16, u32::MAX / 256),
        ("moderate", u32::MAX / 4, u32::MAX / 128),
        ("sustained", u32::MAX, u32::MAX / 128),
    ];
    let s = &c.scales;
    // Size the arrival stream, firmware reset latency, deadline, and
    // breaker windows in units of one clean host-route run: the host path
    // is the degradation target, and "hopelessly late" means several
    // host-runs of queueing.
    let host_run = service_time(&mut load(smart(), Tables::Lineitem, s)?, Route::Host)?;
    let n = 16;
    let policy = BreakerPolicy {
        enabled: true,
        failure_threshold: 3,
        // The cooldown spans several inter-arrival gaps: once tripped, the
        // breaker probes the device only a few times over the whole
        // stream, so the tail of the workload routes straight to the host
        // instead of waiting out one more firmware reset.
        window: frac(host_run, 8, 1),
        cooldown: frac(host_run, 6, 1),
        ..BreakerPolicy::default()
    };
    let opts = WorkloadOptions::new()
        .queue_bound(n)
        .deadline(frac(host_run, 24, 1));
    let workload = Workload::open_stream(&q6(), n, frac(host_run, 5, 4), s.seed);
    let mut clean = None;
    let mut rows = Vec::new();
    for &(label, crash_rate, ecc_rate) in SCENARIOS {
        for breaker in [false, true] {
            let mut b = smart()
                .fault_rates(ecc_rate, 0, 0)
                .crash_faults(crash_rate, frac(host_run, 2, 1));
            if breaker {
                b = b.breaker(policy);
            }
            let rep = load(b, Tables::Lineitem, s)?.run_workload(&workload, opts.clone())?;
            rows.push(row![
                label,
                crash_rate,
                ecc_rate,
                breaker,
                rep.completions.len(),
                rep.rejected,
                rep.deadline_missed,
                rep.throughput_qps,
                rep.makespan.as_secs_f64(),
                ms(rep.latency.p95),
                rep.faults.fallbacks,
                rep.breaker_transitions.len(),
                matches_clean(&mut clean, &rep),
                Cell::Raw(rep.faults.to_json()),
            ]);
        }
    }
    r.note(format!(
        "  device crash rates ({n}-query Q6 open stream, breaker off vs on):"
    ));
    r.table("crash_rates", COLS, rows);
    r.note("  (completed answers stay bit-identical in every cell; the breaker trades");
    r.note("   wasted device probes for straight-to-host routing once the device is sick)");
    Ok(())
}

/// The `chaos` report's third fault table: a Q6 stream on a 16-device
/// array (paper Section 4.3's parallel DBMS of Smart SSDs), healthy vs one
/// crashed device, breaker off vs on. With the breaker off every query
/// keeps probing the dead device and pays its firmware reset latency
/// before falling back; with it on the breaker trips after the first
/// failures and later queries route that shard straight to the host block
/// path — a separate failure domain — so one dead device out of 16 costs
/// about one shard of throughput, not an outage.
fn dead_device(c: &Ctx, r: &mut Report) -> Result<(), RunError> {
    const COLS: &[Col] = &[
        col("  scenario ", "  {:<9}").key("scenario", 0),
        col("  breaker", "  {:>7}")
            .key("breaker", 0)
            .words("on", "off"),
        col("  dead", "  {:>4}").key("dead_devices", 0),
        jcol("queries", 0),
        col("  thruput[qps]", "  {:>12.3}").key("throughput_qps", 6),
        col("  of-ideal", "  {:>8.2}").key("of_ideal", 6),
        col("  p95[ms]", "  {:>7.2}").key("p95_ms", 6),
        col("  fallbacks", "  {:>9}").key("fallbacks", 0),
        col("  host-runs", "  {:>9}").key("host_shard_runs", 0),
        col("  match", "  {:>5}")
            .key("matches_clean", 0)
            .words("yes", "NO"),
        jcol("faults", 0),
    ];
    let s = &c.scales;
    let (devices, stream_len) = (16usize, if c.quick { 16 } else { 32 });
    let stream: Vec<_> = (0..stream_len).map(|_| q6()).collect();
    let mut rows = Vec::new();
    let mut healthy_qps = None;
    let mut clean = None;
    for (label, dead, breaker) in [
        ("healthy", 0usize, false),
        ("one-dead", 1, false),
        ("one-dead", 1, true),
    ] {
        let mut fleet = tpch_fleet(devices, s, breaker)?;
        for d in 0..dead {
            fleet.device_mut(d).config_mut().fault_rates.crash_rate = u32::MAX;
        }
        let rep = fleet.run_stream(&stream)?;
        // Answer check: one more Q6 after the stream, against the healthy
        // fleet's answer.
        fleet.clear_cache();
        let check = fleet.run(&q6(), RunOptions::routed(Route::Device))?.result;
        let answer = (check.agg_values, check.scalar);
        let matches = answer == *clean.get_or_insert_with(|| answer.clone());
        // The ideal degraded throughput: healthy (the first row) scaled by
        // alive/total.
        let healthy = *healthy_qps.get_or_insert(rep.throughput_qps);
        let ideal = healthy * (devices - dead) as f64 / devices as f64;
        rows.push(row![
            label,
            breaker,
            dead,
            rep.queries,
            rep.throughput_qps,
            if ideal > 0.0 {
                rep.throughput_qps / ideal
            } else {
                0.0
            },
            ms(rep.latency.p95),
            rep.fallbacks,
            rep.host_shard_runs,
            matches,
            Cell::Raw(rep.faults.to_json()),
        ]);
    }
    r.note(format!(
        "  one dead array device ({devices} devices, {stream_len}-query Q6 stream):"
    ));
    r.table("fleet", COLS, rows);
    r.note("  (one dead device out of 16 costs about one shard of throughput; the");
    r.note("   breaker trades per-query dead-device probes for straight-to-host routing)");
    Ok(())
}

/// Composes `loads` into one workload and registers every tenant on `opts`.
fn tenants(loads: &[TenantLoad], seed: u64, opts: WorkloadOptions) -> (Workload, WorkloadOptions) {
    let (workload, specs) = compose(loads, seed);
    (workload, specs.into_iter().fold(opts, |o, t| o.tenant(t)))
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
fn serving(c: &Ctx) -> Result<Report, RunError> {
    const KNEE: &[Col] = &[
        col("  rho  ", "  {:<5.3}").key("rho", 6),
        jcol("mean_gap_ns", 0),
        col("  offered[qps]", "  {:>11.3}").key("offered_qps", 6),
        col("  thruput[qps]", "  {:>12.3}").key("throughput_qps", 6),
        col("  done", "  {:>4}").key("completed", 0),
        col("  canc", "  {:>4}").key("canceled", 0),
        col("   p50[ms]", "  {:>8.2}").key("p50_ms", 6),
        col("   p99[ms]", "  {:>8.2}").key("p99_ms", 6),
    ];
    const ISOLATION: &[Col] = &[
        col("  scenario      ", "  {:<14}").key("scenario", 0),
        col("  fair", "  {:>4}").key("fair", 0).words("wfq", "fifo"),
        col("  tenant     ", "  {:<11}").key("tenant", 0),
        col("   arr", "  {:>4}").key("arrivals", 0),
        col("  done", "  {:>4}").key("completed", 0),
        col("  rej", "  {:>3}").key("rejected", 0),
        jcol("deadline_missed", 0),
        col("  canc", "  {:>4}").key("canceled", 0),
        jcol("failed", 0),
        col("   p50[ms]", "  {:>8.2}").key("p50_ms", 6),
        col("   p99[ms]", "  {:>8.2}").key("p99_ms", 6),
    ];
    let s = &c.scales;
    let (knee_n, victim_n) = if c.quick { (16, 12) } else { (48, 24) };
    let query = q6();
    let unit = service_time(&mut load(smart(), Tables::Lineitem, s)?, Route::Device)?;
    // One session slot makes utilization arithmetic exact: capacity is one
    // query per service time, and rho = service_time / mean_gap.
    let run = |loads: &[TenantLoad], fair: bool| -> Result<WorkloadReport, RunError> {
        let opts = WorkloadOptions::new()
            .interface(InterfaceMode::Direct)
            .fair_queueing(fair);
        let (workload, opts) = tenants(loads, s.seed, opts);
        let b = smart().tweak(|c| c.smart.max_sessions = 1);
        load(b, Tables::Lineitem, s)?.run_workload(&workload, opts)
    };
    let poisson = |spec: TenantSpec, n: usize, gap: SimTime| {
        TenantLoad::new(spec, query.clone(), n, gap).model(ArrivalModel::Exponential)
    };

    // Sweep 1: the open-system knee.
    let mut knee = Vec::new();
    for (num, den) in [(1u64, 4u64), (2, 4), (3, 4), (7, 8), (1, 1), (9, 8), (2, 1)] {
        let gap = frac(unit, den, num);
        let open = poisson(TenantSpec::new("open"), knee_n, gap).cancel_after(frac(unit, 20, 1));
        let rep = run(&[open], true)?;
        knee.push(row![
            num as f64 / den as f64,
            gap.as_nanos(),
            1e9 / gap.as_nanos() as f64,
            rep.throughput_qps,
            rep.completions.len(),
            rep.canceled,
            ms(rep.latency.p50),
            ms(rep.latency.p99),
        ]);
    }

    // Sweep 2: the isolation matrix. Victims offer a combined ~73% of
    // capacity (enough self-queueing that the baseline p99 is an honest
    // yardstick); the aggressor floods at 2x capacity behind its own
    // 16-deep admission bound, so excess flood is rejected unexecuted
    // while the backlog it does enqueue stays full.
    let mut isolation = Vec::new();
    for (scenario, with_aggressor, fair) in [
        ("baseline", false, true),
        ("aggressor+wfq", true, true),
        ("aggressor+fifo", true, false),
    ] {
        let interactive = TenantSpec::new("interactive").weight(8).lane(0);
        let reporting = TenantSpec::new("reporting").weight(4).lane(1);
        let mut loads = vec![
            poisson(interactive, victim_n, frac(unit, 3, 1)),
            poisson(reporting, victim_n, frac(unit, 5, 2)),
        ];
        if with_aggressor {
            let spec = TenantSpec::new("aggressor")
                .weight(1)
                .lane(1)
                .queue_bound(16);
            loads.push(poisson(spec, victim_n * 8, frac(unit, 1, 2)));
        }
        // compose() sub-seeds per tenant index, so appending the aggressor
        // leaves both victims' arrival schedules bit-identical to baseline.
        for t in &run(&loads, fair)?.tenants {
            isolation.push(row![
                scenario,
                fair,
                t.name.clone(),
                t.arrivals,
                t.completed,
                t.rejected,
                t.deadline_missed,
                t.canceled,
                t.failed,
                ms(t.latency.p50),
                ms(t.latency.p99),
            ]);
        }
    }

    let mut r = Report::new("Serving: open-system multi-tenant front door (Q6, one session slot)");
    r.field("query", "q6");
    r.field(
        "service_time_secs",
        Cell::Raw(format!("{:.9}", unit.as_secs_f64())),
    );
    r.note(format!(
        "  device-route service time: {:.3} ms (all loads sized in this unit)",
        ms(unit)
    ));
    r.note(format!(
        "  knee sweep ({knee_n} Poisson arrivals, client patience 20 service times):"
    ));
    r.table("knee", KNEE, knee);
    r.note("");
    r.note(format!(
        "  isolation matrix ({victim_n} arrivals per victim; aggressor floods at 2x capacity):"
    ));
    r.table("isolation", ISOLATION, isolation);
    for v in ["interactive", "reporting"] {
        let p99 = |scenario| {
            r.lookup(
                "isolation",
                &[("scenario", scenario), ("tenant", v)],
                "p99_ms",
            )
        };
        let (base, wfq, fifo) = (p99("baseline"), p99("aggressor+wfq"), p99("aggressor+fifo"));
        r.note(format!(
            "  {v}: p99 is {:.2}x its aggressor-free baseline with WFQ, {:.2}x under FIFO",
            wfq / base,
            fifo / base
        ));
    }
    r.note("  (fair queueing keeps every victim's p99 within 2x of baseline; FIFO");
    r.note("   lets the flood queue ahead of both victims and blows their tails out)");
    r.note(format!("  wrote {}", c.bench));
    Ok(r)
}

/// Why `chrome_json()` below may `expect`: the run's system was built with
/// a [`ChromeTraceSink`], and that sink always yields its JSON.
const CHROME_SINK: &str = "a ChromeTraceSink run yields chrome JSON";

/// Observability: Q6 on the Smart SSD (PAX), once forced onto the device
/// route and once onto the host route, with the simulated-time tracer
/// attached. Each route runs twice — under a [`ChromeTraceSink`] for the
/// timeline (one `trace_<query>_<route>.json` per run, for Perfetto or
/// `chrome://tracing`) and under a [`CounterSink`] for the per-resource
/// busy fractions; the simulation is deterministic, so both runs see
/// identical timing. A traced four-query open Q6 stream with scan sharing
/// on follows: every session's OPEN/GET/CLOSE phases land on that query's
/// own lane of the session track, so the overlap is visible directly.
fn trace(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        jcol("query", 0),
        col("  route  ", "  {:<7}").key("route", 0),
        jcol("sessions", 0),
        jcol("elapsed_secs", 9),
        jcol("makespan_secs", 9),
        col("  elapsed[s]", "  {:>9.3}"),
        jcol("trace_file", 0),
        col("   trace file", "   {}"),
        jcol("busy_fractions", 0),
    ];
    let (s, query) = (&c.scales, q6());
    let mut r = Report::new("Observability: traced Q6 run pair (device vs host route)");
    let mut rows = Vec::new();
    for route in [Route::Device, Route::Host] {
        let run =
            |b: SystemBuilder| load(b, Tables::Tpch, s)?.run(&query, RunOptions::routed(route));
        let rep = run(smart().trace(ChromeTraceSink::new()))?;
        let counted = run(smart().trace(CounterSink::new()))?;
        assert_eq!(
            rep.result.elapsed, counted.result.elapsed,
            "deterministic sim: sink choice must not change timing"
        );
        let elapsed_ns = counted.result.elapsed.as_nanos() as f64;
        let busy: Vec<String> = counted
            .trace
            .counters()
            .iter()
            .flat_map(|snap| &snap.busy_ns)
            .map(|(name, &ns)| format!("\"{name}\": {:.6}", ns as f64 / elapsed_ns))
            .collect();
        let route = format!("{route:?}").to_lowercase();
        let slug = query.name.to_lowercase().replace(' ', "-");
        let file = format!("trace_{slug}_{route}.json");
        let json = rep.trace.chrome_json().expect(CHROME_SINK).to_string();
        r.files.push((file.clone(), json));
        rows.push(row![
            query.name.to_string(),
            route,
            Cell::Skip,
            secs(&rep),
            Cell::Skip,
            secs(&rep),
            file.clone(),
            file,
            Cell::Raw(format!("{{{}}}", busy.join(", "))),
        ]);
    }
    let n = 4usize;
    let b = smart().shared_scans(true).trace(ChromeTraceSink::new());
    let workload = Workload::open_stream(&query, n, SimTime::from_nanos(2_000_000), s.seed);
    let rep = load(b, Tables::Lineitem, s)?.run_workload(&workload, WorkloadOptions::default())?;
    let (file, makespan) = ("trace_q6_workload.json", rep.makespan.as_secs_f64());
    let json = rep.trace.chrome_json().expect(CHROME_SINK).to_string();
    r.files.push((file.into(), json));
    rows.push(row![
        "q6 workload",
        "both",
        n,
        Cell::Skip,
        makespan,
        makespan,
        file,
        format!("{file} ({n} concurrent queries, one lane each)"),
        Cell::Skip,
    ]);
    r.table("runs", COLS, rows);
    r.note(format!(
        "  (per-resource busy fractions in {}; open the trace",
        c.bench
    ));
    r.note("   files in https://ui.perfetto.dev or chrome://tracing)");
    Ok(r)
}

/// Row count of the simspeed table: a LINEITEM slice small enough that one
/// query scans a handful of pages, so the sweep measures scheduler and
/// timeline overhead rather than kernel arithmetic.
pub const SIMSPEED_ROWS: u64 = 360;

/// Mean inter-arrival gap of the simspeed stream: 86.4 ms, i.e. one million
/// queries per simulated day — the "million-query day" the sweep simulates.
pub const SIMSPEED_MEAN_GAP: SimTime = SimTime::from_micros(86_400);

/// Builds the simspeed system: a Smart SSD with a [`SIMSPEED_ROWS`]-row
/// LINEITEM slice loaded, cold.
pub fn simspeed_system(seed: u64) -> System {
    load(smart(), Tables::Lineitem, &slice(SIMSPEED_ROWS, seed)).expect(LOAD_FITS)
}

/// The open Q6 arrival stream the simspeed sweep replays.
pub fn simspeed_workload(n: usize, seed: u64) -> Workload {
    Workload::open_stream(&q6(), n, SIMSPEED_MEAN_GAP, seed)
}

/// Best wall-clock seconds over `reps` (at least one) timed runs of `run`
/// on a freshly built (cold) `build()`, with the last run's report.
fn best_of<T>(
    reps: u32,
    build: impl Fn() -> System,
    mut run: impl FnMut(&mut System) -> Result<T, RunError>,
) -> Result<(f64, T), RunError> {
    let mut timed = || {
        let mut sys = build();
        let t = std::time::Instant::now();
        let rep = run(&mut sys)?;
        Ok::<_, RunError>((t.elapsed().as_secs_f64(), rep))
    };
    let (mut best, mut rep) = timed()?;
    for _ in 1..reps {
        let (wall, again) = timed()?;
        (best, rep) = (best.min(wall), again);
    }
    Ok((best, rep))
}

/// Simulator-throughput sweep: replays open streams of Q6 arrivals under
/// device-only timing and reports arrivals per wall-clock second and
/// simulated-ns advanced per wall-clock second. Simulated figures are
/// deterministic, wall-clock figures are machine-dependent (hence not part
/// of `all`). `--smoke` restricts the sweep to the smallest point (the CI
/// floor test runs a debug binary).
fn simspeed(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  arrivals", "  {:>8}").key("arrivals", 0),
        col("   completed", "   {:>9}").key("completed", 0),
        jcol("flash_reads", 0),
        col("  sim[s]   ", "  {:>9.3}").key("sim_secs", 9),
        col("   wall[s]", "  {:>9.3}").key("wall_secs", 6).wall(),
        col("    arrivals/s", "  {:>12.0}")
            .key("arrivals_per_sec", 1)
            .wall(),
        col("    sim-ns/wall-s", "  {:>13.3e}")
            .key("sim_ns_per_wall_sec", 1)
            .wall(),
    ];
    let counts: &[usize] = if c.smoke {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let reps = if c.quick { 1 } else { 2 };
    let seed = Scales::quick().seed;
    let mut rows = Vec::new();
    for &n in counts {
        let workload = simspeed_workload(n, seed);
        let opts = || WorkloadOptions::new().interface(InterfaceMode::Direct);
        let (wall, rep) = best_of(
            reps,
            || simspeed_system(seed),
            |sys| sys.run_workload(&workload, opts()),
        )?;
        rows.push(row![
            n,
            rep.completions.len(),
            rep.flash_reads,
            rep.makespan.as_secs_f64(),
            wall,
            n as f64 / wall,
            rep.makespan.as_nanos() as f64 / wall,
        ]);
    }
    let mut r = Report::new("Simulator throughput: open Q6 stream, arrivals per wall-second");
    r.field("quick", c.quick);
    r.field("smoke", c.smoke);
    r.field("query", "q6");
    r.field("interface_mode", "direct");
    r.field("table_rows", SIMSPEED_ROWS);
    r.field("mean_gap_ns", SIMSPEED_MEAN_GAP.as_nanos());
    r.field("reps", reps);
    r.field("timing", "best wall-clock over reps");
    r.table("points", COLS, rows);
    r.note("  (simulated figures are deterministic; wall-clock is machine-dependent)");
    r.note(format!("  wrote {}", c.bench));
    Ok(r)
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
    let b = smart().tweak(|c| c.smart.max_sessions = 1);
    load(b, Tables::Lineitem, &slice(SERVESCALE_ROWS, seed)).expect(LOAD_FITS)
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
    let gap = frac(service, tenants as u64, 2);
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
            .cancel_after(frac(service, 8, 1))
        })
        .collect()
}

/// Serving-scale sweep: streams multi-tenant serving days through
/// [`System::run_serving`] (device-only timing, one session slot) across
/// tenant counts and stream sizes. Simulated figures are deterministic in
/// the seed, wall-clock figures are machine-dependent (hence not part of
/// `all`). `--smoke` restricts the sweep to one tiny cell (the CI floor
/// test runs a debug binary).
fn servescale(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  tenants", "  {:>7}").key("tenants", 0),
        col("   arrivals", "  {:>9}").key("arrivals", 0),
        col("  completed", "  {:>9}").key("completed", 0),
        col("   canceled", "  {:>9}").key("canceled", 0),
        jcol("sim_secs", 9),
        col("    wall[s]", "  {:>9.3}").key("wall_secs", 6).wall(),
        col("    arrivals/s", "  {:>12.0}")
            .key("arrivals_per_sec", 1)
            .wall(),
        jcol("sim_ns_per_wall_sec", 1).wall(),
    ];
    // Tenant counts per stream size.
    let sweeps: &[(&[usize], usize)] = if c.smoke {
        &[(&[16], 2_000)]
    } else if c.quick {
        &[(&[16, 4_096], 20_000)]
    } else {
        &[
            (&[16, 256, 4_096, 10_000], 100_000),
            (&[16, 256, 4_096, 10_000], 1_000_000),
        ]
    };
    let reps = if c.quick || c.smoke { 1 } else { 2 };
    let seed = 42;
    // One probe run prices Q6 device service on this table, so load sizing
    // is invariant to kernel-cost changes.
    let service = service_time(&mut servescale_system(seed), Route::Device)?;
    let mut rows = Vec::new();
    for &(tenant_counts, arrivals) in sweeps {
        for &tenants in tenant_counts {
            let loads = servescale_loads(tenants, arrivals, service);
            let total: usize = loads.iter().map(|l| l.count()).sum();
            let (wall, rep) = best_of(
                reps,
                || servescale_system(seed),
                |sys| {
                    let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);
                    sys.run_serving(&loads, seed, opts)
                },
            )?;
            rows.push(row![
                tenants,
                total,
                rep.completions.len(),
                rep.canceled,
                rep.makespan.as_secs_f64(),
                wall,
                total as f64 / wall,
                rep.makespan.as_nanos() as f64 / wall,
            ]);
        }
    }
    let mut r = Report::new("Serving scale: multi-tenant arrivals per wall-second");
    r.field("quick", c.quick);
    r.field("smoke", c.smoke);
    r.field("query", "q6");
    r.field("interface_mode", "direct");
    r.field("max_sessions", 1u64);
    r.field("table_rows", SERVESCALE_ROWS);
    r.field("offered_rho", Cell::Raw("2.0".into()));
    r.field("reps", reps);
    r.field("timing", "best wall-clock over reps");
    r.table("points", COLS, rows);
    r.note("  (simulated figures are deterministic; wall-clock is machine-dependent)");
    r.note(format!("  wrote {}", c.bench));
    Ok(r)
}

/// Every fault matrix over Q6 (robustness extension; not a paper figure),
/// in four tables: injected flash-fault rates ([`flash_rates`]), device
/// crash rates under a breaker ([`crash_rates`]), one dead device of a
/// 16-device array ([`dead_device`]), and last the gray-failure chaos
/// matrix — scripted [`FaultPlan`] scenarios crossed with defense stacks,
/// measured at the victim tenant's tail.
///
/// In the chaos matrix a high-weight `interactive` tenant (the victim
/// whose p99 we protect) and a low-weight `batch` tenant together offer
/// ~50% of the single-slot device capacity. Each scenario scripts one gray failure — a 4x or 16x
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
fn chaos(c: &Ctx) -> Result<Report, RunError> {
    const COLS: &[Col] = &[
        col("  scenario ", "  {:<9}").key("scenario", 0),
        col("  defense", "  {:<7}").key("defense", 0),
        jcol("arrivals", 0),
        col("  done", "  {:>4}").key("completed", 0),
        col("  rej", "  {:>3}").key("rejected", 0),
        col("  goodput[qps]", "  {:>12.3}").key("goodput_qps", 6),
        jcol("victim_completed", 0),
        col("  victim-p99[ms]", "  {:>14.2}").key("victim_p99_ms", 6),
        jcol("batch_completed", 0),
        jcol("batch_rejected", 0),
        col("  fallbacks", "  {:>9}").key("fallbacks", 0),
        col("  slow-trips", "  {:>10}").key("slow_trips", 0),
        col("  trips", "  {:>5}").key("breaker_transitions", 0),
        col("  match", "  {:>5}")
            .key("matches_clean", 0)
            .words("yes", "NO"),
        jcol("faults", 0),
    ];
    let s = &c.scales;
    let query = q6();
    let unit = service_time(&mut load(smart(), Tables::Lineitem, s)?, Route::Device)?;

    // The victim offers ~17% of capacity, batch ~33%: comfortable when
    // healthy (a uniform arrival schedule keeps the healthy queue depth
    // at 0-2, so brownout never fires in the healthy cell), hopeless once
    // a slowdown cuts capacity 4-16x.
    let n: usize = if c.quick { 16 } else { 32 };
    let horizon = frac(unit, 6 * n as u64, 1);
    // The gray window opens after a healthy head long enough to calibrate
    // the breaker's latency baseline, and never closes: a real gray
    // incident outlives any one stream, so detection and routing are the
    // only way out — there is no healthy tail to bail the no-defense run.
    let (from, until) = (frac(unit, 18, 1), SimTime::MAX);

    // The slowdown scenarios arm the plan on the device *firmware* only
    // (the embedded CPU throttles; the media path stays healthy) — the
    // canonical gray failure, and the one where routing around the device
    // actually pays. The ECC burst is the media-layer counterpart: it
    // slows the flash itself, which the host block path shares, so no
    // routing escape exists and defenses can only shed load.
    let scenarios: [(&str, FaultPlan, bool); 5] = [
        ("healthy", FaultPlan::new(), false),
        ("slow4x", FaultPlan::new().slowdown(0, 4, from, until), true),
        (
            "slow16x",
            FaultPlan::new().slowdown(0, 16, from, until),
            true,
        ),
        (
            "crash",
            FaultPlan::new().crash_at(0, frac(horizon, 1, 2)),
            false,
        ),
        (
            "ecc-burst",
            FaultPlan::new().ecc_burst(0, 0..u64::MAX, from, until),
            false,
        ),
    ];
    let policy = BreakerPolicy {
        enabled: true,
        failure_threshold: 3,
        window: frac(unit, 8, 1),
        // Once tripped, stay host-routed for the rest of the incident: a
        // short cooldown would close the breaker onto the still-gray
        // device, and every re-closure costs two more slowed services
        // before the latency rule can re-trip.
        cooldown: frac(unit, 64 * 4, 1),
        // A 2x-sustained latency EWMA opens the breaker with zero hard
        // failures -- the gray-failure case rate-based health misses.
        slow_trip_factor: 2,
        // The healthy head of the stream has ~9 device completions before
        // the window opens; calibrate on the first 6.
        baseline_samples: 6,
    };
    let uniform = |name: &str, weight, count, gap| {
        TenantLoad::new(
            TenantSpec::new(name).weight(weight),
            query.clone(),
            count,
            gap,
        )
        .model(ArrivalModel::Uniform)
    };
    let loads = [
        uniform("interactive", 8, n, frac(unit, 6, 1)),
        uniform("batch", 1, 2 * n, frac(unit, 3, 1)),
    ];

    let mut clean = None;
    let mut rows = Vec::new();
    for (scenario, plan, firmware_only) in &scenarios {
        for defense in ["none", "breaker", "full"] {
            let mut b = smart().tweak(|c| c.smart.max_sessions = 1);
            b = if *firmware_only {
                let view = plan.for_device(0);
                b.tweak(move |c| c.smart.fault_plan = view)
            } else {
                b.fault_plan(plan)
            };
            if defense != "none" {
                b = b.breaker(policy);
            }
            // Global FIFO admission: the front door most deployments run,
            // and the one where a gray device actually takes the victim
            // down with it — WFQ alone already shields the victim's queue
            // slot, which would mask what each chaos defense buys.
            let opts = WorkloadOptions::new().fair_queueing(false);
            let (workload, mut opts) = tenants(&loads, s.seed, opts);
            if defense == "full" {
                opts = opts.brownout(BrownoutPolicy { max_waiting: 2 });
            }
            let rep = load(b, Tables::Lineitem, s)?.run_workload(&workload, opts)?;
            let tenant = |name: &str| {
                let found = rep.tenants.iter().find(|t| t.name == name);
                found.cloned().unwrap_or_default()
            };
            let (victim, batch) = (tenant("interactive"), tenant("batch"));
            rows.push(row![
                *scenario,
                defense,
                workload.len(),
                rep.completions.len(),
                rep.rejected,
                rep.throughput_qps,
                victim.completed,
                ms(victim.latency.p99),
                batch.completed,
                batch.rejected,
                rep.faults.fallbacks,
                rep.faults.slow_trips,
                rep.breaker_transitions.len(),
                matches_clean(&mut clean, &rep),
                Cell::Raw(rep.faults.to_json()),
            ]);
        }
    }
    let mut r = Report::new("Chaos: Q6 under flash faults, device crashes and gray failures");
    r.field("query", "q6");
    r.field("service_time_ms", Cell::Raw(format!("{:.6}", ms(unit))));
    r.field("victim", "interactive");
    flash_rates(c, &mut r)?;
    r.note("");
    crash_rates(c, &mut r)?;
    r.note("");
    dead_device(c, &mut r)?;
    r.note("");
    r.note("  gray failures x defense stacks (two tenants, global FIFO front door):");
    r.note(format!(
        "  service time (device-route Q6): {:.3} ms",
        ms(unit)
    ));
    r.table("points", COLS, rows);
    for scenario in ["slow4x", "slow16x"] {
        let p99 = |defense| {
            let cell = [("scenario", scenario), ("defense", defense)];
            r.lookup("points", &cell, "victim_p99_ms")
        };
        let (none, breaker, full) = (p99("none"), p99("breaker"), p99("full"));
        let verdict = if full < breaker && breaker < none {
            "each defense layer pays"
        } else {
            "ORDERING VIOLATED"
        };
        r.note(format!(
            "  {scenario}: victim p99 full {full:.2} < breaker {breaker:.2} < none {none:.2} ms — {verdict}"
        ));
    }
    r.note("  (identical arrival schedules in every cell; answers stay bit-identical —");
    r.note("   the defenses change routing and shedding, never results)");
    r.note(format!("  wrote {}", c.bench));
    Ok(r)
}

macro_rules! registry {
    ($($name:literal $scope:tt $bench:tt $run:ident $about:literal)*) => {
        /// Every `repro` subcommand, in `repro all` print order. `all`
        /// entries (the paper's figures and the extensions answering its
        /// questions) are deterministic and pinned by the `repro --quick all`
        /// golden; `extra` ones (wall-clock sweeps, fault matrices, traces,
        /// serving) run only by name. `bench` writes `BENCH_<name>.json`.
        pub static REGISTRY: &[Experiment] = &[$(Experiment {
            name: $name,
            about: $about,
            in_all: matches!(stringify!($scope).as_bytes(), b"all"),
            bench: matches!(stringify!($bench).as_bytes(), b"bench"),
            run: $run,
        }),*];
    };
}

registry! {
    "fig1" all - fig1_trend "Figure 1: host-interface vs SSD-internal bandwidth trend"
    "tab2" all - tab2_bandwidth "Table 2: sequential read bandwidth, external vs internal path"
    "fig3" all - fig3 "Figure 3: TPC-H Q6 elapsed time on SSD / Smart SSD NSM / Smart SSD PAX"
    "fig5" all - fig5 "Figure 5: selection-with-join elapsed time vs selectivity"
    "fig7" all - fig7 "Figure 7: TPC-H Q14 elapsed time"
    "tab3" all - tab3 "Table 3: Q6 elapsed time and energy on HDD / SSD / Smart SSD"
    "plans" all - plans "Figures 4 & 6: the pushdown query plans, as text"
    "scan-sweep" all - scan_sweep "[7]'s single-table scan sweep: selectivity x aggregation"
    "array" all - array "Discussion: Q6, Q14 and Q1 across an array of 1-64 Smart SSDs (linked protocol)"
    "cache" all - cache "Discussion: planner-routed Q6 vs buffer-pool residency"
    "codesign" all - codesign "Section 5: Q6, the 1% join and Q14 vs device profile, interface and host DOP, each route's bottleneck"
    "concurrency" all bench concurrency "Section 5: 1-8 concurrent Q6 sessions on one device, scan sharing off vs on"
    "q1" all - q1_groups "Extension: grouped aggregation (TPC-H Q1) pushdown"
    "trace" extra bench trace "Traced Q6 device/host run pair + 4-query workload; also writes trace_*.json (Perfetto)"
    "serving" extra bench serving "Open-system Poisson load sweep (p99 knee) + multi-tenant WFQ/FIFO isolation matrix"
    "simspeed" extra bench simspeed "Wall-clock: simulator throughput on open Q6 streams (--smoke: smallest point)"
    "servescale" extra bench servescale "Wall-clock: serving admission at scale, tenants x stream size (--smoke: one cell)"
    "chaos" extra bench chaos "Q6 fault matrices: flash/crash rates, a dead array device, gray failures x defenses"
}
