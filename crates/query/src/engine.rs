//! The host execution engine — the paper's baseline path.
//!
//! Runs the same physical operator (the same [`QueryOp`], the same kernels,
//! the same driver — [`smartssd_exec::run_op`]) as the device, but on the
//! host: this module supplies the host-side [`OpSite`], where pages stream
//! across the host interface from a [`PageSource`] and the operator work
//! executes on one host thread (or `dop` of them) priced by the host cost
//! table. This is exactly the paper's baseline protocol ("we used the same
//! query plan as the Smart SSD, but the plan was run entirely in the host",
//! Section 4.2.2.1).

use crate::plan::Finalize;
use smartssd_exec::{run_op, CostTable, OpScratch, OpSite, QueryOp, WorkCounts};
use smartssd_host::{io::IoError, PageSource};
use smartssd_sim::trace::pid;
use smartssd_sim::{CpuModel, Interval, SimTime, TraceLevel, Tracer};
use smartssd_storage::expr::{AggState, ExprError};
use smartssd_storage::{PageBuf, Tuple};
use std::fmt;

/// Raw output of one engine pass, before finalization: the merged (but not
/// yet finalized) aggregate states, output rows, the absolute simulated end
/// time, and the work receipt. A coordinator merging partials from several
/// engines (the fleet's host-fallback shards) needs the mergeable
/// [`AggState`]s, not the finalized values — finalizing per-shard would
/// break non-distributive aggregates like AVG.
#[derive(Debug, Clone)]
pub struct RawRun {
    /// Output rows (row-stream operators).
    pub rows: Vec<Tuple>,
    /// Merged aggregate states, pre-finalize (empty for row streams).
    pub aggs: Vec<AggState>,
    /// Absolute simulated time the pass finished (not a duration).
    pub end: SimTime,
    /// Work receipt of everything the engine executed.
    pub work: WorkCounts,
}

impl RawRun {
    /// Finalizes the pass into a [`QueryResult`] for a query that started
    /// at simulated time `started` (`elapsed` is measured from there).
    pub fn finalize(self, finalize: &Finalize, started: SimTime) -> QueryResult {
        let (agg_values, scalar) = finalize.apply(&self.aggs);
        QueryResult {
            rows: self.rows,
            agg_values,
            scalar,
            elapsed: self.end.saturating_sub(started),
            work: self.work,
        }
    }
}

/// A completed query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output rows (row-stream queries).
    pub rows: Vec<Tuple>,
    /// Final aggregate values.
    pub agg_values: Vec<i128>,
    /// Finalized scalar (e.g. Q14's promo_revenue percentage).
    pub scalar: Option<f64>,
    /// Simulated completion time of the query.
    pub elapsed: SimTime,
    /// Work receipt of everything the engine executed.
    pub work: WorkCounts,
}

impl QueryResult {
    /// Convenience: the single aggregate value of a one-agg query.
    pub fn agg(&self) -> i128 {
        assert_eq!(self.agg_values.len(), 1, "query has multiple aggregates");
        self.agg_values[0]
    }
}

/// Host-engine failures.
#[derive(Debug)]
pub enum EngineError {
    /// The read path failed.
    Io(IoError),
    /// The operator failed validation.
    Validation(ExprError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "io: {e}"),
            EngineError::Validation(e) => write!(f, "validation: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<IoError> for EngineError {
    fn from(e: IoError) -> Self {
        EngineError::Io(e)
    }
}

/// The host as [`run_op`] sees it: pages stream across the host interface
/// from the [`PageSource`], receipts are priced by the host cost table and
/// executed on `dop` worker threads of the host CPU, and there is neither a
/// memory grant nor a result buffer to cut at (the trait's defaults).
struct HostSite<'a, S: PageSource> {
    source: &'a mut S,
    cpu: &'a mut CpuModel,
    costs: &'a CostTable,
    /// When each worker thread is next free: the i-th receipt runs on
    /// thread `i % dop`, chained after that thread's previous one.
    thread_free: Vec<SimTime>,
    next_thread: usize,
    /// Latest completion of any receipt so far.
    end: SimTime,
}

impl<S: PageSource> OpSite for HostSite<'_, S> {
    type Instant = SimTime;
    type Error = EngineError;

    /// The host has no shared-scan window: every read is its own.
    fn read_page(
        &mut self,
        lba: u64,
        at: SimTime,
        _shareable: bool,
    ) -> Result<(&PageBuf, SimTime), EngineError> {
        Ok(self.source.read_page(lba, at)?)
    }

    fn charge(&mut self, at: SimTime, work: &WorkCounts) -> SimTime {
        let thread = self.next_thread;
        self.next_thread = (thread + 1) % self.thread_free.len();
        let start = at.max(self.thread_free[thread]);
        let done = self.cpu.execute(start, self.costs.cycles(work)).end;
        self.thread_free[thread] = done;
        self.end = self.end.max(done);
        done
    }
}

/// The host engine: a page source, a CPU, and a cost table.
///
/// The engine runs single-threaded per query (the paper's special scan
/// path): each page's operator work is chained after the previous page's,
/// even when the underlying [`CpuModel`] has more cores.
pub struct HostEngine<'a, S: PageSource> {
    /// Pages come from here (SSD behind the interface, or HDD).
    pub source: &'a mut S,
    /// The host CPU bank.
    pub cpu: &'a mut CpuModel,
    /// Host cycle prices.
    pub costs: CostTable,
    tracer: Tracer,
}

impl<'a, S: PageSource> HostEngine<'a, S> {
    /// Creates an engine.
    pub fn new(source: &'a mut S, cpu: &'a mut CpuModel, costs: CostTable) -> Self {
        Self {
            source,
            cpu,
            costs,
            tracer: Tracer::none(),
        }
    }

    /// Attaches a tracer: the engine emits one operator-level span per run
    /// under the host-cpu pid (per-kernel charges are emitted by the
    /// [`CpuModel`] itself, if it carries the same tracer).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Executes `op` starting at simulated time `now`, applying `finalize`
    /// to aggregates, with `dop` parallel worker threads sharing the page
    /// stream round-robin. The paper's prototype path is single-threaded
    /// (`dop = 1`, the special SQL Server scan path); higher degrees model
    /// the "what if the host DBMS parallelized its scan" ablation — see the
    /// `codesign` experiment's host DOP rows. Results are identical at any degree;
    /// only timing moves.
    pub fn run(
        &mut self,
        op: &QueryOp,
        finalize: &Finalize,
        now: SimTime,
        dop: usize,
    ) -> Result<QueryResult, EngineError> {
        let raw = self.run_raw(op, now, dop, &mut OpScratch::default())?;
        Ok(raw.finalize(finalize, now))
    }

    /// Executes `op` like [`HostEngine::run`] but returns the raw pass —
    /// mergeable aggregate states instead of finalized values — so a
    /// scatter/gather coordinator can fold this engine's output into
    /// partials from other shards before finalizing once. The driver runs
    /// on `scratch`, which a caller that runs many passes over one source
    /// keeps from one to the next.
    pub fn run_raw(
        &mut self,
        op: &QueryOp,
        now: SimTime,
        dop: usize,
        scratch: &mut OpScratch<SimTime>,
    ) -> Result<RawRun, EngineError> {
        let dop = dop.clamp(1, self.cpu.cores());
        op.validate().map_err(EngineError::Validation)?;
        let mut site = HostSite {
            source: &mut *self.source,
            cpu: &mut *self.cpu,
            costs: &self.costs,
            thread_free: vec![now; dop],
            next_thread: 0,
            end: now,
        };
        let run = run_op(&mut site, op, now, scratch)?;
        let end = site.end;
        let opname = match op {
            QueryOp::Scan { .. } => "host-scan",
            QueryOp::ScanAgg { .. } => "host-scan-agg",
            QueryOp::GroupAgg { .. } => "host-group-agg",
            QueryOp::Join { .. } => "host-join",
        };
        self.tracer.span(
            TraceLevel::Protocol,
            pid::HOST_CPU,
            99,
            opname,
            "host-operator",
            Interval { start: now, end },
            &[("dop", dop as f64)],
        );
        Ok(RawRun {
            rows: run.last.rows,
            aggs: run.last.aggs.unwrap_or_default(),
            end,
            work: run.work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_exec::spec::{ScanAggSpec, ScanSpec};
    use smartssd_exec::TableRef;
    use smartssd_flash::{FlashConfig, FlashSsd};
    use smartssd_host::{InterfaceKind, SsdHostPath};
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout, Schema, TableBuilder, TableImage, PAGE_SIZE};
    use std::sync::Arc;

    fn table(layout: Layout, n: i32) -> TableImage {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new("t", Arc::clone(&s), layout);
        b.extend((0..n).map(|k| vec![Datum::I32(k), Datum::I64(k as i64 * 2)] as Tuple));
        b.finish()
    }

    fn loaded_path(img: &TableImage) -> (SsdHostPath, TableRef) {
        let mut ssd = FlashSsd::new(FlashConfig::default());
        for (i, p) in img.pages().iter().enumerate() {
            ssd.write(i as u64, p.raw().clone(), SimTime::ZERO).unwrap();
        }
        ssd.reset_timing();
        let tref = TableRef {
            first_lba: 0,
            num_pages: img.num_pages() as u64,
            schema: img.schema().clone(),
            layout: img.layout(),
        };
        (SsdHostPath::new(ssd, InterfaceKind::Sas6, 0), tref)
    }

    #[test]
    fn host_agg_is_correct() {
        let img = table(Layout::Nsm, 50_000);
        let (mut path, tref) = loaded_path(&img);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let mut eng = HostEngine::new(&mut path, &mut cpu, CostTable::host());
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(1000)),
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        };
        let r = eng.run(&op, &Finalize::AggRow, SimTime::ZERO, 1).unwrap();
        assert_eq!(r.agg_values[0], (0..1000i128).map(|k| k * 2).sum::<i128>());
        assert_eq!(r.agg_values[1], 1000);
        assert!(r.elapsed > SimTime::ZERO);
    }

    #[test]
    fn host_scan_projects_rows() {
        let img = table(Layout::Pax, 5_000);
        let (mut path, tref) = loaded_path(&img);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let mut eng = HostEngine::new(&mut path, &mut cpu, CostTable::host());
        let op = QueryOp::Scan {
            table: tref,
            spec: ScanSpec {
                pred: Pred::Cmp(CmpOp::Ge, Expr::col(0), Expr::lit(4_990)),
                project: vec![1],
            },
        };
        let r = eng.run(&op, &Finalize::Rows, SimTime::ZERO, 1).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.rows[0], vec![Datum::I64(4_990 * 2)]);
    }

    #[test]
    fn single_thread_keeps_other_cores_idle() {
        let img = table(Layout::Nsm, 100_000);
        let (mut path, tref) = loaded_path(&img);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        };
        let r = HostEngine::new(&mut path, &mut cpu, CostTable::host())
            .run(&op, &Finalize::AggRow, SimTime::ZERO, 1)
            .unwrap();
        // All work chained on one thread: total busy equals the busy time of
        // the busiest lane, i.e. utilization <= 1/8 of the bank.
        let util = cpu.utilization(r.elapsed);
        assert!(util <= 1.0 / 8.0 + 1e-6, "bank utilization {util}");
    }

    #[test]
    fn io_bound_scan_approaches_interface_bandwidth() {
        // A trivial predicate on realistically wide tuples (~60/page, like
        // the paper's LINEITEM) keeps the host CPU light; elapsed time
        // should approach bytes / 550 MB/s (the Table 2 external bound).
        let s = Schema::from_pairs(&[
            ("k", DataType::Int32),
            ("v", DataType::Int64),
            ("pad", DataType::Char(120)),
        ]);
        let mut b = TableBuilder::new("wide", Arc::clone(&s), Layout::Nsm);
        b.extend(
            (0..40_000)
                .map(|k| vec![Datum::I32(k), Datum::I64(k as i64), Datum::str("x")] as Tuple),
        );
        let img = b.finish();
        let (mut path, tref) = loaded_path(&img);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let op = QueryOp::ScanAgg {
            table: tref.clone(),
            spec: ScanAggSpec {
                pred: Pred::Const(false),
                aggs: vec![AggSpec::count()],
            },
        };
        let r = HostEngine::new(&mut path, &mut cpu, CostTable::host())
            .run(&op, &Finalize::AggRow, SimTime::ZERO, 1)
            .unwrap();
        let mbps = (tref.num_pages * PAGE_SIZE as u64) as f64 / r.elapsed.as_secs_f64() / 1e6;
        assert!(
            (430.0..560.0).contains(&mbps),
            "host scan effective {mbps:.0} MB/s"
        );
    }

    #[test]
    fn parallel_scan_is_faster_and_identical() {
        let img = table(Layout::Nsm, 100_000);
        let op = |tref: TableRef| QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(500)),
                aggs: vec![AggSpec::sum(Expr::col(1)), AggSpec::count()],
            },
        };
        let (mut p1, t1) = loaded_path(&img);
        let mut cpu1 = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let serial = HostEngine::new(&mut p1, &mut cpu1, CostTable::host())
            .run(&op(t1), &Finalize::AggRow, SimTime::ZERO, 1)
            .unwrap();
        let (mut p4, t4) = loaded_path(&img);
        let mut cpu4 = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let parallel = HostEngine::new(&mut p4, &mut cpu4, CostTable::host())
            .run(&op(t4), &Finalize::AggRow, SimTime::ZERO, 4)
            .unwrap();
        assert_eq!(serial.agg_values, parallel.agg_values);
        // This narrow-tuple scan is CPU-bound serially, so parallelism
        // helps until the interface becomes the limit.
        assert!(
            parallel.elapsed.as_secs_f64() < serial.elapsed.as_secs_f64() * 0.7,
            "dop4 {} vs dop1 {}",
            parallel.elapsed,
            serial.elapsed
        );
    }

    #[test]
    fn validation_failure_is_reported() {
        let img = table(Layout::Nsm, 10);
        let (mut path, tref) = loaded_path(&img);
        let mut cpu = CpuModel::new("host-cpu", 1, 1_000_000_000);
        let op = QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::sum(Expr::col(77))],
            },
        };
        let err = HostEngine::new(&mut path, &mut cpu, CostTable::host())
            .run(&op, &Finalize::AggRow, SimTime::ZERO, 1)
            .unwrap_err();
        assert!(matches!(err, EngineError::Validation(_)));
    }
}
