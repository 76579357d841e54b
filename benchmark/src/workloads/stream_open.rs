//! `stream_open` — the "million-query day" with the queue empty: a
//! simulated open loop of Poisson Q6 arrivals, mean gap 86.4 ms against a
//! service time under a millisecond (utilization about 0.01), over a
//! 360-row LINEITEM slice in `InterfaceMode::Direct`. It measures the
//! per-arrival cost of the event loop, the session protocol, the
//! timelines and report assembly; the admission heap never forms a queue.
//!
//! Arrival schedules live in simulated time, so the generator cannot run
//! late: there is no lateness to report.

use super::oracle::{self, Answer};
use super::{digest_stream, Config, Rep, Workload};
use crate::spans::Spans;
use smartssd::{
    DeviceKind, InterfaceMode, Layout, SimTime, System, SystemBuilder, WorkloadOptions,
};
use smartssd_storage::{TableBuilder, TableImage};
use smartssd_workload::{q6, queries, tpch};
use std::time::Instant;

/// Rows of the LINEITEM slice: a handful of pages, so a query is mostly
/// protocol and scheduling, not kernel arithmetic (`repro simspeed`'s size).
pub const ROWS: u64 = 360;
/// Mean inter-arrival gap: one million queries per simulated day.
pub const MEAN_GAP: SimTime = SimTime::from_micros(86_400);
const ARRIVALS: usize = 100_000;
const ARRIVALS_SMOKE: usize = 1_000;

/// LINEITEM's first `rows` rows as a PAX image.
pub fn lineitem_slice(rows: u64, seed: u64, spans: &mut Spans) -> TableImage {
    let sf = rows as f64 / tpch::LINEITEM_ROWS_SF1 as f64;
    spans.call("storage.build_lineitem", || {
        let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), Layout::Pax);
        b.extend(tpch::lineitem_rows(sf, seed));
        b.finish()
    })
}

/// A fresh Smart SSD/PAX system with `img` loaded as LINEITEM, cold.
pub fn slice_system(
    cfg: &Config,
    img: &TableImage,
    max_sessions: Option<usize>,
    spans: &mut Spans,
) -> System {
    let mut sys = spans.call("core.build", || {
        let mut b = cfg.builder(SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax));
        if let Some(n) = max_sessions {
            b = b.tweak(|c| c.smart.max_sessions = n);
        }
        b.build()
    });
    spans
        .call("core.load_table", || sys.load_table(queries::LINEITEM, img))
        .expect("load");
    sys.finish_load();
    sys
}

/// Q6 over the first `rows` LINEITEM rows, from arithmetic over regenerated
/// rows and from the row-at-a-time kernel over `img`; the two must agree.
pub fn q6_reference(img: &TableImage, rows: u64, seed: u64) -> Answer {
    let sf = rows as f64 / tpch::LINEITEM_ROWS_SF1 as f64;
    let from_rows = oracle::q6_from_rows(tpch::lineitem_rows(sf, seed));
    let from_kernel = oracle::rowwise_reference(&q6(), img);
    assert_eq!(
        Some(&from_rows),
        from_kernel.as_ref(),
        "the two Q6 references disagree"
    );
    from_rows
}

pub struct StreamOpen {
    cfg: Config,
    img: TableImage,
    workload: smartssd::Workload,
    /// Q6 over the slice; computed by the first deep rep. Public so a
    /// self-test can corrupt it and watch the run fail.
    pub reference: Option<Answer>,
}

impl StreamOpen {
    pub fn setup(cfg: Config, spans: &mut Spans) -> Self {
        let n = if cfg.smoke { ARRIVALS_SMOKE } else { ARRIVALS };
        let img = lineitem_slice(ROWS, cfg.seed, spans);
        let workload = spans.call("core.open_stream", || {
            smartssd::Workload::open_stream(&q6(), n, MEAN_GAP, cfg.seed)
        });
        Self {
            cfg,
            img,
            workload,
            reference: None,
        }
    }
}

impl Workload for StreamOpen {
    fn rep(&mut self, spans: &mut Spans, deep: bool) -> Rep {
        let mut sys = slice_system(&self.cfg, &self.img, None, spans);
        let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);
        let n = self.workload.len();

        let t = Instant::now();
        let report = spans
            .call("core.run_workload", || {
                sys.run_workload(&self.workload, opts)
            })
            .expect("run_workload");
        let call_ns = t.elapsed().as_nanos() as u64;

        if deep && self.reference.is_none() {
            self.reference = Some(q6_reference(&self.img, ROWS, self.cfg.seed));
        }
        let want = self.reference.as_ref().filter(|_| deep);
        let mut rep = digest_stream(&report, n, self.img.num_pages() as u64, want);
        // Nothing contends here: an arrival that did not complete is a failure.
        rep.failed += (n - report.completions.len()) as u64 - report.failed;

        // Dropping a 10^5-arrival report is part of what a caller pays.
        let t = Instant::now();
        spans.call("core.drop_report", || drop(report));
        rep.wall_ns = call_ns + t.elapsed().as_nanos() as u64;

        rep.counts.open_sessions_end = sys.open_device_sessions() as u64;
        rep.failed += rep.counts.open_sessions_end;
        rep
    }
}
