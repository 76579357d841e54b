//! `serve_tenants` — the same scheduler as `stream_open`, used the
//! opposite way: 10^4 tenants offering twice what one session slot can
//! serve, each arrival abandoning after eight service times. The wait set
//! stays saturated and a large share of the arrivals is shed, so the work
//! is arrival-stream generation, admission-heap traffic and cancellation
//! events; a 64-row table keeps kernels, storage and flash out of the way.
//!
//! Simulated open loop through `System::run_serving` (arrivals generated
//! lazily inside the call), weights cycling 1..=8, Uniform and Exponential
//! gaps alternating — `repro servescale`'s mix. Schedules live in simulated
//! time, so the generator cannot run late.

use super::oracle::Answer;
use super::stream_open::{lineitem_slice, q6_reference, slice_system};
use super::{digest_stream, Config, Rep, Workload};
use crate::spans::Spans;
use smartssd::{
    ArrivalModel, InterfaceMode, Route, RunOptions, SimTime, TenantLoad, TenantSpec,
    WorkloadOptions,
};
use smartssd_storage::TableImage;
use smartssd_workload::q6;
use std::time::Instant;

/// Rows of the LINEITEM slice (`repro servescale`'s size).
pub const ROWS: u64 = 64;
const TENANTS: usize = 10_000;
const ARRIVALS: usize = 100_000;
const TENANTS_SMOKE: usize = 100;
const ARRIVALS_SMOKE: usize = 1_000;

/// The tenant registry: `tenants` loads of `arrivals / tenants` Q6 queries,
/// together offering twice the single slot's capacity (`service` is one
/// clean device-route Q6), each arrival canceled after eight service times.
pub fn loads(tenants: usize, arrivals: usize, service: SimTime) -> Vec<TenantLoad> {
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

/// Prices one clean device-route Q6 on the slice, so load sizing follows
/// the model instead of a constant.
pub fn service_time(cfg: &Config, img: &TableImage, spans: &mut Spans) -> SimTime {
    let mut probe = slice_system(cfg, img, Some(1), spans);
    spans
        .call("core.run", || {
            probe.run(&q6(), RunOptions::routed(Route::Device))
        })
        .expect("service probe")
        .result
        .elapsed
}

pub struct ServeTenants {
    cfg: Config,
    img: TableImage,
    loads: Vec<TenantLoad>,
    arrivals: usize,
    reference: Option<Answer>,
}

impl ServeTenants {
    pub fn setup(cfg: Config, spans: &mut Spans) -> Self {
        let (tenants, arrivals) = if cfg.smoke {
            (TENANTS_SMOKE, ARRIVALS_SMOKE)
        } else {
            (TENANTS, ARRIVALS)
        };
        let img = lineitem_slice(ROWS, cfg.seed, spans);
        let service = service_time(&cfg, &img, spans);
        let loads = loads(tenants, arrivals, service);
        Self {
            arrivals: loads.iter().map(TenantLoad::count).sum(),
            cfg,
            img,
            loads,
            reference: None,
        }
    }
}

impl Workload for ServeTenants {
    fn rep(&mut self, spans: &mut Spans, deep: bool) -> Rep {
        let mut sys = slice_system(&self.cfg, &self.img, Some(1), spans);
        let opts = WorkloadOptions::new().interface(InterfaceMode::Direct);

        let t = Instant::now();
        let report = spans
            .call("core.run_serving", || {
                sys.run_serving(&self.loads, self.cfg.seed, opts)
            })
            .expect("run_serving");
        let call_ns = t.elapsed().as_nanos() as u64;

        if deep && self.reference.is_none() {
            self.reference = Some(q6_reference(&self.img, ROWS, self.cfg.seed));
        }
        let want = self.reference.as_ref().filter(|_| deep);
        let mut rep = digest_stream(&report, self.arrivals, self.img.num_pages() as u64, want);
        // `run_serving` draws every gap and pushes every arrival through
        // the wait set inside the call.
        rep.counts.gaps_drawn = self.arrivals as u64;
        rep.counts.grants = self.arrivals as u64;
        rep.counts.tenants = self.loads.len() as u64;

        let t = Instant::now();
        spans.call("core.drop_report", || drop(report));
        rep.wall_ns = call_ns + t.elapsed().as_nanos() as u64;

        rep.counts.open_sessions_end = sys.open_device_sessions() as u64;
        rep.failed += rep.counts.open_sessions_end;
        rep
    }
}
