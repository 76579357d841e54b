//! The operator driver: the one place a [`QueryOp`] turns into page reads,
//! kernel calls, CPU charges and result batches.
//!
//! The Smart SSD and the host run the same plan, so the loop that drives it
//! is written once, against an [`OpSite`] — the handful of things that
//! differ between the two environments: how pages are read and when they
//! arrive, what a [`WorkCounts`] receipt costs and on which processor, how
//! much memory an operator may hold, and how large a result batch may grow
//! before it is cut. Each arm of [`run_op`] is a plain serial page loop on
//! one [`ScanScratch`]; the parallelism the figures depend on (flash
//! channels, device cores, host DOP) is modelled inside the site's
//! timelines, not executed here.

use crate::join::{probe_page, projected_row_bytes, JoinHashTable, JoinSink};
use crate::kernels::{group_table_memory_bytes, group_table_rows, GroupTable, ScanScratch};
use crate::spec::{JoinOutput, QueryOp, TableRef};
use crate::work::WorkCounts;
use smartssd_storage::expr::AggState;
use smartssd_storage::{PageBuf, Tuple};

/// Where an operator runs: what [`run_op`] needs from its environment.
///
/// The instant is the site's own clock type, so this crate stays free of
/// the simulation layer; a test site can count in plain integers. A site
/// with no memory limit and no result buffer keeps the defaults.
pub trait OpSite {
    /// A point on the site's clock.
    type Instant: Copy + Ord;
    /// Why the site refused a read or a memory grant.
    type Error;

    /// Reads the one page at `lba`, issued at `at`, returning it with its
    /// arrival instant.
    fn read_page(
        &mut self,
        lba: u64,
        at: Self::Instant,
    ) -> Result<(PageBuf, Self::Instant), Self::Error>;

    /// Reads every page of `table` in LBA order, all issued at `at`.
    /// `shareable` marks a read whose page set does not depend on the data
    /// (a full scan), which a site may serve from a concurrent execution's
    /// read; a site may also batch the whole run. By default, page by page.
    fn read_table(
        &mut self,
        table: &TableRef,
        at: Self::Instant,
        _shareable: bool,
    ) -> Result<Vec<(PageBuf, Self::Instant)>, Self::Error> {
        table.lbas().map(|lba| self.read_page(lba, at)).collect()
    }

    /// Executes `work` on the site's processor, no earlier than `at`, and
    /// returns the instant it completes.
    fn charge(&mut self, at: Self::Instant, work: &WorkCounts) -> Self::Instant;

    /// Refuses an operator whose working set has grown to `resident_bytes`
    /// if that exceeds what the site grants one execution. By default
    /// nothing is refused.
    fn check_grant(&mut self, _resident_bytes: u64) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Row-stream output is cut into a batch whenever it reaches this many
    /// bytes (positive). By default it never is.
    fn batch_cut_bytes(&self) -> u64 {
        u64::MAX
    }
}

/// One unit of operator output — what a `GET` retrieves.
#[derive(Debug, Clone)]
pub struct ResultBatch<I> {
    /// Materialized output rows (scan / grouped aggregation / projecting
    /// join).
    pub rows: Vec<Tuple>,
    /// Aggregate partials (aggregating operators).
    pub aggs: Option<Vec<AggState>>,
    /// Payload size as transferred to the consumer.
    pub bytes: u64,
    /// When the site finished producing this batch.
    pub ready_at: I,
}

/// Everything one operator execution produced.
#[derive(Debug)]
pub struct OpRun<I> {
    /// Batches cut mid-scan because the output reached
    /// [`OpSite::batch_cut_bytes`], in production order.
    pub full: Vec<ResultBatch<I>>,
    /// The final (possibly empty) batch; its `ready_at` is the execution's
    /// completion instant.
    pub last: ResultBatch<I>,
    /// Sum of every receipt charged.
    pub work: WorkCounts,
}

/// A run in progress: the site, the receipts so far, the batches cut so
/// far, and the completion instant of the latest charge.
struct Run<'s, S: OpSite> {
    site: &'s mut S,
    work: WorkCounts,
    full: Vec<ResultBatch<S::Instant>>,
    done: S::Instant,
}

impl<S: OpSite> Run<'_, S> {
    /// Runs one kernel call, charges its receipt at `at` (the arrival of
    /// the pages it consumed) and adds the receipt to the run's total.
    fn charged<T>(&mut self, at: S::Instant, kernel: impl FnOnce(&mut WorkCounts) -> T) -> T {
        let mut w = WorkCounts::default();
        let out = kernel(&mut w);
        self.done = self.site.charge(at, &w);
        self.work.absorb(&w);
        out
    }

    /// Cuts `rows` into a batch once they fill the site's result buffer.
    fn cut_if_full(&mut self, rows: &mut Vec<Tuple>, row_bytes: u64) {
        let bytes = rows.len() as u64 * row_bytes;
        if bytes >= self.site.batch_cut_bytes() {
            self.full.push(ResultBatch {
                rows: std::mem::take(rows),
                aggs: None,
                bytes,
                ready_at: self.done,
            });
        }
    }
}

/// Executes `op` (already validated) on `site`, starting at `now`.
///
/// Per page, in page order: the kernel runs, then its own receipt is
/// charged at the page's arrival instant. `Scan`, `ScanAgg` and both join
/// phases post all their reads up front; `GroupAgg` reads page by page,
/// because its grant check runs after every page and a refused grant must
/// leave the remaining pages unread.
pub fn run_op<S: OpSite>(
    site: &mut S,
    op: &QueryOp,
    now: S::Instant,
) -> Result<OpRun<S::Instant>, S::Error> {
    let mut scratch = ScanScratch::new();
    let mut run = Run {
        site,
        work: WorkCounts::default(),
        full: Vec::new(),
        done: now,
    };
    let (rows, aggs, row_bytes) = match op {
        QueryOp::Scan { table, spec } => {
            let schema = &table.schema;
            let row_bytes = spec.row_bytes(schema);
            let mut rows = Vec::new();
            for (page, at) in run.site.read_table(table, now, true)? {
                run.charged(at, |w| scratch.scan_page(&page, schema, spec, &mut rows, w));
                run.cut_if_full(&mut rows, row_bytes);
            }
            (rows, None, row_bytes)
        }
        QueryOp::ScanAgg { table, spec } => {
            let mut states: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            for (page, at) in run.site.read_table(table, now, true)? {
                run.charged(at, |w| {
                    scratch.scan_agg_page(&page, &table.schema, spec, &mut states, w)
                });
            }
            (Vec::new(), Some(states), 0)
        }
        QueryOp::GroupAgg { table, spec } => {
            let mut acc = GroupTable::new();
            for lba in table.lbas() {
                let (page, at) = run.site.read_page(lba, now)?;
                run.charged(at, |w| {
                    scratch.scan_group_agg_page(&page, &table.schema, spec, &mut acc, w)
                });
                // The group table lives in the execution's memory grant: a
                // high-cardinality grouping aborts mid-scan, exactly when
                // the site runs out.
                run.site
                    .check_grant(group_table_memory_bytes(&acc, spec.aggs.len()))?;
            }
            let rows = group_table_rows(&acc, &spec.key_schema(&table.schema));
            let row_bytes = spec.output_schema(&table.schema).tuple_width() as u64;
            (rows, None, row_bytes)
        }
        QueryOp::Join { probe, spec } => {
            // Build phase (Figures 4 and 6): read the small table and build
            // the hash table once its last page has arrived.
            let build = run.site.read_table(&spec.build.table, now, false)?;
            let build_ready = build.iter().fold(now, |t, &(_, at)| t.max(at));
            let ht = run.charged(build_ready, |w| {
                JoinHashTable::build(build.iter().map(|(page, _)| page), &spec.build, w)
            });
            drop(build);
            run.site.check_grant(ht.memory_bytes())?;
            // Probe phase: reads are issued when the build completes.
            let joined = spec.joined_schema(&probe.schema);
            // An aggregating join streams no rows.
            let row_bytes = match &spec.output {
                JoinOutput::Project(cols) => {
                    projected_row_bytes(cols, &probe.schema, ht.payload_schema())
                }
                JoinOutput::Aggregate(_) => 0,
            };
            let mut sink = JoinSink::new(spec);
            for (page, at) in run.site.read_table(probe, run.done, false)? {
                run.charged(at, |w| {
                    probe_page(&page, &probe.schema, spec, &ht, &joined, &mut sink, w)
                });
                run.cut_if_full(&mut sink.rows, row_bytes);
            }
            let aggregates = matches!(spec.output, JoinOutput::Aggregate(_));
            (sink.rows, aggregates.then_some(sink.aggs), row_bytes)
        }
    };
    // The final (possibly empty) batch marks the completion instant. On
    // the wire a batch of partials is 16 bytes a state, a batch of rows the
    // rows' projected width.
    let bytes = match &aggs {
        Some(states) => 16 * states.len() as u64,
        None => rows.len() as u64 * row_bytes,
    };
    let last = ResultBatch {
        rows,
        aggs,
        bytes,
        ready_at: run.done,
    };
    Ok(OpRun {
        full: run.full,
        last,
        work: run.work,
    })
}
