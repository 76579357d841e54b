//! The pushdown planner.
//!
//! The paper's Discussion (Section 4.3) enumerates when pushing a query into
//! the Smart SSD is *not* the right call: when a fresher copy of the data is
//! in the buffer pool, when the query updates data (no transaction-manager
//! coordination inside the device), when host execution would usefully warm
//! the cache for subsequent queries, and when the device's limited CPU or
//! the result-transfer volume erases the bandwidth advantage. The paper
//! leaves "extending the query optimizer to push operations to the Smart
//! SSD" as future work — this module is that extension, kept deliberately
//! analytic so its decisions are explainable. It weighs cost only: the
//! stale-data rule is correctness, not cost, and lives in `System`, which
//! routes a query over a dirty table to the host before any planner runs.

use smartssd_exec::spec::JoinOutput;
use smartssd_exec::{CostTable, QueryOp};
use smartssd_sim::trace::pid;
use smartssd_sim::{SimTime, TraceLevel, Tracer};
use smartssd_storage::expr::{AggSpec, Expr};
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
            device_costs: CostTable::device(),
            host_costs: CostTable::host(),
        }
    }
}

/// Per-query planner inputs (what a real optimizer would pull from catalog
/// statistics and the buffer manager).
#[derive(Debug, Clone)]
pub struct PlannerInputs {
    /// Fraction of the operator's input pages already in the buffer pool.
    pub residency: f64,
    /// Estimated fraction of probe/scan rows passing the predicate.
    pub selectivity: f64,
    /// Average tuples per input page.
    pub tuples_per_page: f64,
}

impl Default for PlannerInputs {
    fn default() -> Self {
        Self {
            residency: 0.0,
            selectivity: 0.1,
            tuples_per_page: 50.0,
        }
    }
}

/// Analytic time estimates, in seconds, for the two routes.
#[derive(Debug, Clone, Copy)]
pub struct CostEstimate {
    /// Estimated pushdown completion time.
    pub device_secs: f64,
    /// Estimated host-execution completion time.
    pub host_secs: f64,
}

/// Cycles to evaluate `e` on one row, priced as the kernels count it: one
/// node each, plus a value read per column reference; a `CASE` evaluates
/// its condition (one atom) and the dearer branch.
fn expr_cycles(e: &Expr, costs: &CostTable) -> f64 {
    let below = match e {
        Expr::Col(_) => costs.value as f64,
        Expr::Lit(_) => 0.0,
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
            expr_cycles(a, costs) + expr_cycles(b, costs)
        }
        Expr::Case {
            then, otherwise, ..
        } => atom_cycles(costs) + expr_cycles(then, costs).max(expr_cycles(otherwise, costs)),
    };
    costs.expr_node as f64 + below
}

/// Cycles of one predicate atom: a column compared with a literal, two
/// expression nodes and one value read.
fn atom_cycles(costs: &CostTable) -> f64 {
    (costs.pred_atom + 2 * costs.expr_node + costs.value) as f64
}

/// Cycles to fold one row into `aggs`: an update and its input
/// expression each.
fn aggs_cycles(aggs: &[AggSpec], costs: &CostTable) -> f64 {
    let each = |a: &AggSpec| costs.agg_update as f64 + expr_cycles(&a.expr, costs);
    aggs.iter().map(each).sum()
}

/// Per-tuple cycle estimate for an operator under a cost table: the
/// tuple's decode, its predicate and, for the fraction `sel` that passes,
/// the work downstream of it.
fn cycles_per_tuple(op: &QueryOp, costs: &CostTable, sel: f64) -> f64 {
    let value = costs.value as f64;
    let (layout, pred_atoms, downstream) = match op {
        QueryOp::Scan { table, spec } => (
            table.layout,
            spec.pred.num_atoms() as f64,
            sel * (costs.out_tuple as f64 + spec.project.len() as f64 * value),
        ),
        QueryOp::ScanAgg { table, spec } => (
            table.layout,
            spec.pred.num_atoms() as f64,
            sel * aggs_cycles(&spec.aggs, costs),
        ),
        QueryOp::GroupAgg { table, spec } => (
            table.layout,
            spec.pred.num_atoms() as f64,
            sel * (costs.hash_probe as f64
                + spec.group_by.len() as f64 * value
                + aggs_cycles(&spec.aggs, costs)),
        ),
        QueryOp::Join { probe, spec } => {
            // A filter-first join probes only the rows that pass; either
            // way, the fraction `sel` of rows reaches the output.
            let probe_fraction = if spec.filter_first { sel } else { 1.0 };
            let per_match = match &spec.output {
                JoinOutput::Project(cols) => costs.out_tuple as f64 + cols.len() as f64 * value,
                JoinOutput::Aggregate(aggs) => aggs_cycles(aggs, costs),
            };
            (
                probe.layout,
                spec.probe_pred.num_atoms() as f64,
                probe_fraction * (costs.hash_probe as f64 + value) + sel * per_match,
            )
        }
    };
    let tuple = match layout {
        smartssd_storage::Layout::Nsm => costs.tuple_nsm,
        smartssd_storage::Layout::Pax => costs.tuple_pax,
    } as f64;
    // Short-circuiting halves the average atom count for multi-atom ANDs.
    let atoms = (pred_atoms / 2.0).max(1.0);
    tuple + atoms * atom_cycles(costs) + downstream
}

/// Estimated output bytes crossing the host interface under pushdown.
fn output_bytes(op: &QueryOp, tuples: f64, sel: f64) -> f64 {
    match op {
        QueryOp::Scan { table, spec } => {
            sel * tuples * spec.output_schema(&table.schema).tuple_width() as f64
        }
        QueryOp::ScanAgg { spec, .. } => 16.0 * spec.aggs.len() as f64,
        // Grouped output: assume a few hundred groups of modest width.
        QueryOp::GroupAgg { table, spec } => {
            256.0 * spec.output_schema(&table.schema).tuple_width() as f64
        }
        QueryOp::Join { probe, spec } => match &spec.output {
            JoinOutput::Project(cols) => {
                let width: usize = cols
                    .iter()
                    .map(|c| match *c {
                        smartssd_exec::ColRef::Probe(i) => probe.schema.column(i).ty.width(),
                        smartssd_exec::ColRef::Build(i) => {
                            spec.build.payload_schema().column(i).ty.width()
                        }
                    })
                    .sum();
                sel * tuples * width as f64
            }
            JoinOutput::Aggregate(aggs) => 16.0 * aggs.len() as f64,
        },
    }
}

/// Produces the analytic estimates for both routes.
pub fn estimate(op: &QueryOp, cfg: &PlannerConfig, inputs: &PlannerInputs) -> CostEstimate {
    let pages = op.input_pages() as f64;
    let bytes = pages * PAGE_SIZE as f64;
    let tuples = pages * inputs.tuples_per_page;
    let sel = inputs.selectivity.clamp(0.0, 1.0);

    let out = output_bytes(op, tuples, sel);
    // Every page, every tuple, and every output byte materialized.
    let cycles = |costs: &CostTable| {
        pages * costs.page as f64
            + tuples * cycles_per_tuple(op, costs, sel)
            + out * costs.out_byte_tenths as f64 / 10.0
    };

    // Device route: internal read and device CPU overlap; result transfer
    // follows on the external link.
    let dev_io = bytes / (cfg.internal_mbps * 1e6);
    let dev_cpu = cycles(&cfg.device_costs) / cfg.device_cycles_per_sec;
    let dev_out = out / (cfg.external_mbps * 1e6);
    let device_secs = dev_io.max(dev_cpu) + dev_out;

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
            ("selectivity", inputs.selectivity),
        ],
    );
    (route, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_exec::spec::{ScanAggSpec, ScanSpec, TableRef};
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Layout, Schema};

    fn scan_agg(layout: Layout, pages: u64) -> QueryOp {
        QueryOp::ScanAgg {
            table: TableRef {
                first_lba: 0,
                num_pages: pages,
                schema: Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)]),
                layout,
            },
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(5)),
                aggs: vec![AggSpec::sum(Expr::col(1))],
            },
        }
    }

    /// A scan that projects every column of a wide tuple: under selectivity
    /// 1.0 the device would re-ship the whole table across the interface.
    fn wide_scan(pages: u64) -> QueryOp {
        let cols: Vec<(String, DataType)> = (0..20)
            .map(|i| (format!("c{i}"), DataType::Int64))
            .collect();
        let pairs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        QueryOp::Scan {
            table: TableRef {
                first_lba: 0,
                num_pages: pages,
                schema: Schema::from_pairs(&pairs),
                layout: Layout::Pax,
            },
            spec: ScanSpec {
                pred: Pred::Const(true),
                project: (0..20).collect(),
            },
        }
    }

    #[test]
    fn selective_agg_pushes_down() {
        let op = scan_agg(Layout::Pax, 10_000);
        let (route, est) = choose_route(&op, &PlannerConfig::default(), &PlannerInputs::default());
        assert_eq!(route, Route::Device, "estimates: {est:?}");
        assert!(est.device_secs < est.host_secs);
    }

    #[test]
    fn full_result_transfer_kills_pushdown() {
        // Selectivity 1 on a full projection: the device would ship every
        // byte across the interface anyway, after reading it internally.
        let op = wide_scan(10_000);
        let inputs = PlannerInputs {
            selectivity: 1.0,
            ..PlannerInputs::default()
        };
        let (route, est) = choose_route(&op, &PlannerConfig::default(), &inputs);
        assert_eq!(route, Route::Host, "estimates: {est:?}");
    }

    /// Caching takes the transfer out of the host estimate and nothing
    /// else: a cached table goes to the host only where the host then
    /// beats the device.
    #[test]
    fn cached_data_goes_where_it_costs_less() {
        let op = scan_agg(Layout::Pax, 10_000);
        let cold = PlannerInputs {
            tuples_per_page: 20.0,
            ..PlannerInputs::default()
        };
        let cached = PlannerInputs {
            residency: 1.0,
            ..cold.clone()
        };
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
        let op = scan_agg(Layout::Nsm, 10_000);
        let strong = PlannerConfig::default();
        let weak = PlannerConfig {
            device_cycles_per_sec: 30e6, // 30 MHz toy controller
            ..PlannerConfig::default()
        };
        let (r1, _) = choose_route(&op, &strong, &PlannerInputs::default());
        let (r2, e2) = choose_route(&op, &weak, &PlannerInputs::default());
        assert_eq!(r1, Route::Device);
        assert_eq!(r2, Route::Host, "weak-device estimates: {e2:?}");
    }

    #[test]
    fn estimates_scale_linearly_with_pages() {
        let cfg = PlannerConfig::default();
        let inp = PlannerInputs::default();
        let e1 = estimate(&scan_agg(Layout::Pax, 1_000), &cfg, &inp);
        let e2 = estimate(&scan_agg(Layout::Pax, 2_000), &cfg, &inp);
        assert!((e2.host_secs / e1.host_secs - 2.0).abs() < 0.05);
        assert!((e2.device_secs / e1.device_secs - 2.0).abs() < 0.05);
    }
}
