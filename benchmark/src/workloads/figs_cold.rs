//! `figs_cold` — the paper's cold-run protocol, as `repro all` runs it:
//! every query on a freshly built and loaded system, so every page is
//! validated on first touch. The only workload that carries accuracy.
//!
//! One closed-loop client. A rep runs 16 cells: {SAS SSD/NSM on the host
//! route, Smart SSD/NSM, Smart SSD/PAX} x {Q6, Q14, Q1, join@1 %,
//! join@100 %}, plus Q6 on the HDD (Table 3's baseline). Each cell is
//! `SystemBuilder::build` -> `load_table` of pre-built images -> one
//! `System::run` -> drop.

use super::oracle::{self, Answer, DIGEST_SEED};
use super::{Config, Counts, Paper, Rep, Sim, Workload};
use crate::spans::Spans;
use smartssd::{DeviceKind, Layout, Query, RunOptions, RunReport, SystemBuilder};
use smartssd_query::OpTemplate;
use smartssd_storage::table::build_both_layouts;
use smartssd_storage::TableImage;
use smartssd_workload::synthetic::{synthetic_schema, SEL_DOMAIN};
use smartssd_workload::{join_query, q1, q14, q6, queries, synthetic64_r, synthetic64_s, tpch};
use std::time::Instant;

/// TPC-H scale factor and Synthetic64 scale: `repro`'s defaults.
const FULL: (f64, f64) = (0.05, 0.0005);
const SMOKE: (f64, f64) = (0.002, 0.00002);
/// The scale of the pass other workloads take the model figures from
/// (`repro --quick`).
const QUICK: (f64, f64) = (0.01, 0.0001);

const CONFIGS: [(DeviceKind, Layout); 3] = [
    (DeviceKind::Ssd, Layout::Nsm),
    (DeviceKind::SmartSsd, Layout::Nsm),
    (DeviceKind::SmartSsd, Layout::Pax),
];
const SSD: usize = 0;
const PAX: usize = 2;
/// Query order inside a rep.
const Q6: usize = 0;
const Q14: usize = 1;
const JOIN_1: usize = 3;
const JOIN_100: usize = 4;
const QUERIES: usize = 5;

/// Both layouts of one table.
struct Both {
    nsm: TableImage,
    pax: TableImage,
}

impl Both {
    fn get(&self, layout: Layout) -> &TableImage {
        match layout {
            Layout::Nsm => &self.nsm,
            Layout::Pax => &self.pax,
        }
    }
}

pub struct FigsCold {
    cfg: Config,
    scale: (f64, f64),
    lineitem: Both,
    part: Both,
    synth_r: Both,
    synth_s: Both,
    queries: [Query; QUERIES],
    /// Reference answer per query, computed on the first deep rep.
    reference: Option<Vec<Answer>>,
}

impl FigsCold {
    pub fn setup(cfg: Config, spans: &mut Spans) -> Self {
        Self::setup_at(cfg, if cfg.smoke { SMOKE } else { FULL }, spans)
    }

    /// The model against the paper, for workloads that do not run the figure
    /// cells themselves: one untraced pass of these cells at `repro --quick`
    /// scale.
    pub fn paper_at_quick_scale(cfg: Config) -> Paper {
        let mut spans = Spans::off();
        let cfg = Config {
            traced: false,
            ..cfg
        };
        Self::setup_at(cfg, if cfg.smoke { SMOKE } else { QUICK }, &mut spans)
            .rep(&mut spans, false)
            .paper
            .expect("the cells report the paper ratios")
    }

    fn setup_at(cfg: Config, scale: (f64, f64), spans: &mut Spans) -> Self {
        let (sf, synth) = scale;
        let seed = cfg.seed;
        let mut both =
            |name: &'static str, span, schema, gen: &dyn Fn() -> Box<dyn Iterator<Item = _>>| {
                let (nsm, pax) = spans.call(span, || build_both_layouts(name, &schema, gen));
                Both { nsm, pax }
            };
        Self {
            lineitem: both(
                queries::LINEITEM,
                "storage.build_lineitem",
                tpch::lineitem_schema(),
                &|| Box::new(tpch::lineitem_rows(sf, seed)),
            ),
            part: both(
                queries::PART,
                "storage.build_part",
                tpch::part_schema(),
                &|| Box::new(tpch::part_rows(sf, seed)),
            ),
            synth_r: both(
                queries::SYNTH_R,
                "storage.build_synth_r",
                synthetic_schema(),
                &|| Box::new(synthetic64_r(synth, seed)),
            ),
            synth_s: both(
                queries::SYNTH_S,
                "storage.build_synth_s",
                synthetic_schema(),
                &|| Box::new(synthetic64_s(synth, synth, seed)),
            ),
            queries: [q6(), q14(), q1(), join_query(0.01), join_query(1.0)],
            reference: None,
            cfg,
            scale,
        }
    }

    /// The tables query `q` reads, in load order.
    fn tables(&self, q: usize) -> Vec<(&'static str, &Both)> {
        match &self.queries[q].op {
            OpTemplate::Join { probe, .. } if probe == queries::LINEITEM => {
                vec![
                    (queries::LINEITEM, &self.lineitem),
                    (queries::PART, &self.part),
                ]
            }
            OpTemplate::Join { .. } => {
                vec![
                    (queries::SYNTH_R, &self.synth_r),
                    (queries::SYNTH_S, &self.synth_s),
                ]
            }
            _ => vec![(queries::LINEITEM, &self.lineitem)],
        }
    }

    /// One cell: fresh system, load, one cold run, drop.
    fn cell(
        &self,
        kind: DeviceKind,
        layout: Layout,
        q: usize,
        spans: &mut Spans,
        counts: &mut Counts,
    ) -> RunReport {
        let mut sys = spans.call("core.build", || {
            self.cfg.builder(SystemBuilder::new(kind, layout)).build()
        });
        for (name, both) in self.tables(q) {
            let img = both.get(layout);
            spans
                .call("core.load_table", || sys.load_table(name, img))
                .expect("load");
            if kind != DeviceKind::Hdd {
                counts.flash_writes_fresh += img.num_pages() as u64;
            }
            if kind == DeviceKind::SmartSsd {
                counts.device_load_pages += img.num_pages() as u64;
            }
        }
        sys.finish_load();
        let report = spans
            .call("core.run", || {
                sys.run(&self.queries[q], RunOptions::default())
            })
            .expect("run");
        counts.open_sessions_end += sys.open_device_sessions() as u64;
        spans.call("core.drop_system", || drop(sys));

        let w = &report.result.work;
        let scanned = w.tuples_nsm + w.tuples_pax;
        match &self.queries[q].op {
            OpTemplate::ScanAgg { .. } => {
                counts.tuples_scan_nsm += w.tuples_nsm;
                counts.tuples_scan_pax += w.tuples_pax;
            }
            OpTemplate::GroupAgg { .. } => counts.tuples_group += scanned,
            _ => {
                counts.join_build_rows += w.hash_builds;
                counts.join_probe_tuples += scanned - w.hash_builds;
            }
        }
        counts.pred_atoms += w.pred_atoms;
        counts.pages_validated += w.pages;
        match kind {
            DeviceKind::SmartSsd => {
                counts.flash_new += 1;
                counts.device_new += 1;
                counts.flash_reads += w.pages;
                counts.device_pages += w.pages;
                counts.sessions_linked += 1;
                counts.wire_ops += 1;
            }
            DeviceKind::Ssd => {
                counts.flash_new += 1;
                counts.flash_reads += w.pages;
                counts.host_reads += w.pages;
                counts.host_run_pages += w.pages;
                counts.pool_misses += w.pages;
            }
            DeviceKind::Hdd => {
                counts.host_reads += w.pages;
                counts.host_run_pages += w.pages;
                counts.pool_misses += w.pages;
            }
        }
        report
    }

    /// Reference answers: row-at-a-time kernels over the NSM images where
    /// they apply, and arithmetic over regenerated rows for every query
    /// but Q1.
    fn references(&self) -> Vec<Answer> {
        let (sf, synth) = self.scale;
        let seed = self.cfg.seed;
        let q6_rows = oracle::q6_from_rows(tpch::lineitem_rows(sf, seed));
        let q6_kernel = oracle::rowwise_reference(&self.queries[Q6], &self.lineitem.nsm);
        assert_eq!(
            Some(&q6_rows),
            q6_kernel.as_ref(),
            "the two Q6 references disagree"
        );
        let r_rows: Vec<_> = synthetic64_r(synth, seed).collect();
        let join = |sel: f64| {
            oracle::join_from_rows(
                synthetic64_s(synth, synth, seed),
                &r_rows,
                (SEL_DOMAIN as f64 * sel) as i64,
            )
        };
        vec![
            q6_rows,
            oracle::q14_from_rows(tpch::lineitem_rows(sf, seed), tpch::part_rows(sf, seed)),
            oracle::rowwise_reference(&self.queries[2], &self.lineitem.nsm)
                .expect("Q1 is a group-agg"),
            join(0.01),
            join(1.0),
        ]
    }
}

/// The ten ratios the paper publishes for these cells, with its values.
fn paper_ratios(cells: &[Vec<RunReport>], hdd: &RunReport) -> [(f64, f64); 10] {
    let secs = |c: usize, q: usize| cells[c][q].result.elapsed.as_secs_f64();
    let speedup = |q: usize| secs(SSD, q) / secs(PAX, q);
    let (e_hdd, e_ssd, e_pax) = (&hdd.energy, &cells[SSD][Q6].energy, &cells[PAX][Q6].energy);
    [
        (speedup(Q6), 1.7),       // Figure 3
        (speedup(JOIN_1), 2.2),   // Figure 5 at 1 %
        (speedup(JOIN_100), 1.0), // Figure 5 at 100 %
        (speedup(Q14), 1.3),      // Figure 7
        // Table 3, energy over Smart SSD (PAX).
        (e_hdd.system_kj() / e_pax.system_kj(), 11.6),
        (e_hdd.io_kj() / e_pax.io_kj(), 14.3),
        (e_hdd.over_idle_kj() / e_pax.over_idle_kj(), 12.4),
        (e_ssd.system_kj() / e_pax.system_kj(), 1.9),
        (e_ssd.io_kj() / e_pax.io_kj(), 1.4),
        (e_ssd.over_idle_kj() / e_pax.over_idle_kj(), 2.3),
    ]
}

impl Workload for FigsCold {
    fn rep(&mut self, spans: &mut Spans, deep: bool) -> Rep {
        let mut rep = Rep::default();
        let mut counts = Counts::default();
        let t = Instant::now();
        // cells[config][query]
        let cells: Vec<Vec<RunReport>> = CONFIGS
            .iter()
            .map(|&(kind, layout)| {
                (0..QUERIES)
                    .map(|q| self.cell(kind, layout, q, spans, &mut counts))
                    .collect()
            })
            .collect();
        let hdd = self.cell(DeviceKind::Hdd, Layout::Nsm, Q6, spans, &mut counts);
        rep.wall_ns = t.elapsed().as_nanos() as u64;

        if deep && self.reference.is_none() {
            self.reference = Some(self.references());
        }
        let all = || cells.iter().flatten().chain([&hdd]);
        let mut digest = DIGEST_SEED;
        for q in 0..QUERIES {
            let answers: Vec<Answer> = cells.iter().map(|c| Answer::of(&c[q].result)).collect();
            let expect = match (&self.reference, deep) {
                (Some(r), true) => &r[q],
                _ => &answers[0],
            };
            rep.failed += answers.iter().filter(|a| *a != expect).count() as u64;
            digest = answers[0].fold_into(digest);
        }
        if deep {
            let want = &self.reference.as_ref().expect("set above")[Q6];
            rep.failed += u64::from(Answer::of(&hdd.result) != *want);
        }
        rep.failed += counts.open_sessions_end;
        rep.attempted = all().count() as u64;
        rep.arrivals = rep.attempted;
        rep.pages = all().map(|r| r.result.work.pages).sum();

        // The simulated figures describe the product: the ten Smart SSD
        // cells. The SSD and HDD cells are baselines for the ratios below.
        let smart: Vec<u64> = cells[1..]
            .iter()
            .flatten()
            .map(|r| r.result.elapsed.as_nanos())
            .collect();
        rep.sim = Sim::new(smart.iter().sum(), smart, digest);
        let ratios = paper_ratios(&cells, &hdd);
        rep.paper = Some(Paper {
            speedup_x: (ratios[0].0 * ratios[3].0 * ratios[1].0).cbrt(),
            err_pct: ratios
                .iter()
                .map(|(got, paper)| 100.0 * (got - paper).abs() / paper)
                .sum::<f64>()
                / ratios.len() as f64,
        });
        for r in all() {
            rep.absorb_trace(&r.trace, r.result.elapsed.as_nanos());
        }
        counts.completed = rep.sim.completed;
        counts.wasted_sim_ns = all().map(|r| r.faults.wasted_ns).sum();
        rep.counts = counts;
        rep
    }
}
