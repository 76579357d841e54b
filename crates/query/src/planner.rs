//! The pushdown planner.
//!
//! The paper's Discussion (Section 4.3) enumerates when pushing a query into
//! the Smart SSD is *not* the right call: when a fresher copy of the data is
//! in the buffer pool, when the query updates data (no transaction-manager
//! coordination inside the device), when host execution would usefully warm
//! the cache for subsequent queries, and when the device's limited CPU or
//! the result-transfer volume erases the bandwidth advantage. The paper
//! leaves "extending the query optimizer to push operations to the Smart
//! SSD" as future work — this module is that extension. It has no cost
//! model of its own: it prices the kernels' own [`WorkCounts`] receipt,
//! which the caller measures on a sample of the input, with the same
//! [`CostTable`]s the engines charge, and adds each route's bandwidth. It
//! weighs cost only: the stale-data rule is correctness, not cost, and
//! lives in `System`, which routes a query over a dirty table to the host
//! before any planner runs.

use smartssd_exec::{CostTable, QueryOp, WorkCounts};
use smartssd_sim::trace::pid;
use smartssd_sim::{SimTime, TraceLevel, Tracer};
use smartssd_storage::PAGE_SIZE;

/// Where the operator should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Push down into the Smart SSD.
    Device,
    /// Run on the host engine.
    Host,
}

/// The machine the estimator plans for. A `System` derives it from its own
/// configuration; the default is the paper's test bed.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Device-internal sequential read bandwidth, MB/s (Table 2: 1,560).
    pub internal_mbps: f64,
    /// Host interface bandwidth, MB/s (Table 2: 550).
    pub external_mbps: f64,
    /// Device CPU capacity, cycles/second (cores x clock).
    pub device_cycles_per_sec: f64,
    /// Host per-query CPU capacity, cycles/second (clock x intra-query
    /// degree of parallelism).
    pub host_cycles_per_sec: f64,
    /// The device route's session commands, seconds: an `OPEN` per
    /// device, one after another on the shared link, and the last `GET`
    /// (SAS: 20 us a command).
    pub protocol_secs: f64,
    /// Device cycle prices.
    pub device_costs: CostTable,
    /// Host cycle prices.
    pub host_costs: CostTable,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            internal_mbps: 1_560.0,
            external_mbps: 550.0,
            device_cycles_per_sec: 2.0 * 400e6,
            host_cycles_per_sec: 2.26e9,
            protocol_secs: 2.0 * 20e-6,
            device_costs: CostTable::device(),
            host_costs: CostTable::host(),
        }
    }
}

/// Per-query planner inputs: what a real optimizer would pull from the
/// buffer manager and from statistics sampled off the table.
#[derive(Debug, Clone, Default)]
pub struct PlannerInputs {
    /// Fraction of the operator's input pages already in the buffer pool.
    pub residency: f64,
    /// The work the operator does over its whole input, as the kernels
    /// count it: a receipt measured on a sample of the input and scaled to
    /// the table.
    pub work: WorkCounts,
}

/// Analytic time estimates, in seconds, for the two routes.
#[derive(Debug, Clone, Copy)]
pub struct CostEstimate {
    /// Estimated pushdown completion time.
    pub device_secs: f64,
    /// Estimated host-execution completion time.
    pub host_secs: f64,
}

/// Produces the estimates for both routes: the receipt priced by each
/// route's own cost table, overlapped with that route's reads.
pub fn estimate(op: &QueryOp, cfg: &PlannerConfig, inputs: &PlannerInputs) -> CostEstimate {
    let bytes = op.input_pages() as f64 * PAGE_SIZE as f64;
    let out = inputs.work.out_bytes as f64;
    let cycles = |costs: &CostTable| costs.cycles(&inputs.work) as f64;

    // Device route: the session's commands, then internal read and device
    // CPU overlapped; result transfer follows on the external link.
    let dev_io = bytes / (cfg.internal_mbps * 1e6);
    let dev_cpu = cycles(&cfg.device_costs) / cfg.device_cycles_per_sec;
    let dev_out = out / (cfg.external_mbps * 1e6);
    let device_secs = cfg.protocol_secs + dev_io.max(dev_cpu) + dev_out;

    // Host route: only non-resident pages cross the interface; host CPU
    // overlaps the transfer.
    let host_io = bytes * (1.0 - inputs.residency.clamp(0.0, 1.0)) / (cfg.external_mbps * 1e6);
    let host_cpu = cycles(&cfg.host_costs) / cfg.host_cycles_per_sec;
    let host_secs = host_io.max(host_cpu);

    CostEstimate {
        device_secs,
        host_secs,
    }
}

/// Picks the route with the lower estimated time. Caching weighs in
/// through the host estimate, which charges only non-resident pages: the
/// paper's "if all or part of the data is already cached ... pushing the
/// processing to the Smart SSD may not be beneficial" is a cost, not a
/// rule.
pub fn choose_route(
    op: &QueryOp,
    cfg: &PlannerConfig,
    inputs: &PlannerInputs,
) -> (Route, CostEstimate) {
    let est = estimate(op, cfg, inputs);
    let route = if est.device_secs < est.host_secs {
        Route::Device
    } else {
        Route::Host
    };
    (route, est)
}

/// Like [`choose_route`], additionally emitting the decision and both cost
/// estimates as an instant trace event under the planner pid.
pub fn choose_route_traced(
    op: &QueryOp,
    cfg: &PlannerConfig,
    inputs: &PlannerInputs,
    tracer: &Tracer,
) -> (Route, CostEstimate) {
    let (route, est) = choose_route(op, cfg, inputs);
    let name = match route {
        Route::Device => "route=Device",
        Route::Host => "route=Host",
    };
    tracer.instant(
        TraceLevel::Protocol,
        pid::PLANNER,
        0,
        name,
        "planner",
        SimTime::ZERO,
        &[
            ("device_secs", est.device_secs),
            ("host_secs", est.host_secs),
            ("residency", inputs.residency),
        ],
    );
    (route, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_exec::spec::{ScanAggSpec, TableRef};
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Layout, Schema};

    fn scan_agg(pages: u64) -> QueryOp {
        QueryOp::ScanAgg {
            table: TableRef {
                first_lba: 0,
                num_pages: pages,
                schema: Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)]),
                layout: Layout::Pax,
            },
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5)),
                aggs: vec![AggSpec::sum(Expr::col(1))],
            },
        }
    }

    /// A selective aggregate's receipt over `pages` PAX pages of
    /// `per_page` tuples: one atom a tuple, a tenth of the tuples folded.
    fn agg_receipt(pages: u64, per_page: u64) -> WorkCounts {
        let tuples = pages * per_page;
        WorkCounts {
            pages,
            tuples_pax: tuples,
            values: tuples + tuples / 10,
            pred_atoms: tuples,
            expr_nodes: 2 * tuples + tuples / 10,
            agg_updates: tuples / 10,
            ..WorkCounts::default()
        }
    }

    fn inputs(residency: f64, work: WorkCounts) -> PlannerInputs {
        PlannerInputs { residency, work }
    }

    #[test]
    fn selective_agg_pushes_down() {
        let inp = inputs(0.0, agg_receipt(10_000, 50));
        let (route, est) = choose_route(&scan_agg(10_000), &PlannerConfig::default(), &inp);
        assert_eq!(route, Route::Device, "estimates: {est:?}");
        assert!(est.device_secs < est.host_secs);
    }

    #[test]
    fn full_result_transfer_kills_pushdown() {
        // Every tuple of a 20-column row comes out: the device would ship
        // every byte across the interface anyway, after reading it
        // internally.
        let tuples = 10_000 * 50;
        let work = WorkCounts {
            pages: 10_000,
            tuples_pax: tuples,
            values: 20 * tuples,
            out_tuples: tuples,
            out_bytes: 160 * tuples,
            ..WorkCounts::default()
        };
        let op = scan_agg(10_000);
        let (route, est) = choose_route(&op, &PlannerConfig::default(), &inputs(0.0, work));
        assert_eq!(route, Route::Host, "estimates: {est:?}");
    }

    /// Caching takes the transfer out of the host estimate and nothing
    /// else: a cached table goes to the host only where the host then
    /// beats the device.
    #[test]
    fn cached_data_goes_where_it_costs_less() {
        let op = scan_agg(10_000);
        let cold = inputs(0.0, agg_receipt(10_000, 20));
        let cached = inputs(1.0, cold.work);
        let slow = PlannerConfig {
            device_cycles_per_sec: 200e6,
            ..PlannerConfig::default()
        };
        let paper = PlannerConfig::default();
        assert_eq!(choose_route(&op, &paper, &cached).0, Route::Device);
        assert_eq!(choose_route(&op, &slow, &cold).0, Route::Device);
        let (route, est) = choose_route(&op, &slow, &cached);
        assert_eq!(route, Route::Host, "estimates: {est:?}");
    }

    #[test]
    fn weaker_device_cpu_shifts_the_decision() {
        let (op, inp) = (scan_agg(10_000), inputs(0.0, agg_receipt(10_000, 50)));
        let weak = PlannerConfig {
            device_cycles_per_sec: 30e6, // 30 MHz toy controller
            ..PlannerConfig::default()
        };
        let (r1, _) = choose_route(&op, &PlannerConfig::default(), &inp);
        let (r2, e2) = choose_route(&op, &weak, &inp);
        assert_eq!(r1, Route::Device);
        assert_eq!(r2, Route::Host, "weak-device estimates: {e2:?}");
    }

    /// Past the device route's fixed session commands, both estimates
    /// are linear in the pages and the receipt over them.
    #[test]
    fn estimates_scale_linearly_with_pages() {
        let cfg = PlannerConfig::default();
        let e1 = estimate(&scan_agg(1_000), &cfg, &inputs(0.0, agg_receipt(1_000, 50)));
        let e2 = estimate(&scan_agg(2_000), &cfg, &inputs(0.0, agg_receipt(2_000, 50)));
        let device = |e: CostEstimate| e.device_secs - cfg.protocol_secs;
        assert!((e2.host_secs / e1.host_secs - 2.0).abs() < 1e-9);
        assert!((device(e2) / device(e1) - 2.0).abs() < 1e-9);
    }
}
