//! The operator driver: the one place a [`QueryOp`] turns into page reads,
//! kernel calls, CPU charges and result batches.
//!
//! The Smart SSD and the host run the same plan, so the loop that drives it
//! is written once, against an [`OpSite`] — the handful of things that
//! differ between the two environments: how pages are read and when they
//! arrive, what a [`WorkCounts`] receipt costs and on which processor, how
//! much memory an operator may hold, and how large a result batch may grow
//! before it is cut. Each arm of [`run_op`] is one serial page stream on
//! one [`ScanScratch`]: the site validates each page and hands it straight
//! to the kernel, so a page leaves memory once, and the kernel's receipts
//! are charged afterwards, each at its page's arrival. The parallelism the
//! figures depend on (flash channels, device cores, host DOP) is modelled
//! inside the site's timelines, not executed here.

use crate::join::{probe_page, projected_row_bytes, JoinHashTable, JoinSink};
use crate::kernels::{group_table_memory_bytes, group_table_rows, GroupTable, ScanScratch};
use crate::spec::{JoinOutput, QueryOp, TableRef};
use crate::work::WorkCounts;
use smartssd_storage::expr::AggState;
use smartssd_storage::{PageBuf, Tuple};
use std::ops::ControlFlow;

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

    /// Streams the pages of `table` in LBA order, all issued at `at`: each
    /// page is validated and handed to `consume`, with the site for grant
    /// checks, before the next is read. A `Break` from `consume` ends the
    /// stream; no later page is read. Appends the arrival instant of every
    /// page consumed to `arrivals`, in order. `shareable` marks a read whose
    /// page set does not depend on the data (a full scan), which a site may
    /// serve from a concurrent execution's read; a site may also charge the
    /// stream's timing as one batch. By default, [`Self::read_page`] then
    /// `consume`, page by page.
    fn read_table(
        &mut self,
        table: &TableRef,
        at: Self::Instant,
        _shareable: bool,
        arrivals: &mut Vec<Self::Instant>,
        mut consume: impl FnMut(&mut Self, &PageBuf) -> ControlFlow<()>,
    ) -> Result<(), Self::Error> {
        for lba in table.lbas() {
            let (page, arrived) = self.read_page(lba, at)?;
            arrivals.push(arrived);
            if consume(self, &page).is_break() {
                break;
            }
        }
        Ok(())
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

/// The buffers one operator execution works in, kept by a site that runs
/// many: the kernels' scratch, one receipt per page consumed and not yet
/// charged (88 bytes a page), and those pages' arrival instants. A warm
/// scratch runs a scan without touching the heap beyond its output.
#[derive(Default)]
pub struct OpScratch<I> {
    scan: ScanScratch,
    receipts: Vec<WorkCounts>,
    arrivals: Vec<I>,
}

impl<I: Copy> OpScratch<I> {
    /// Starts a run of `op` at `now` on these buffers: empties what a run
    /// that failed mid-stream left behind, makes room for a receipt and an
    /// arrival per page, and lends out the kernels' scratch and the
    /// arrivals beside the run that keeps the receipts.
    fn start(&mut self, op: &QueryOp, now: I) -> (&mut ScanScratch, Run<'_, I>, &mut Vec<I>) {
        let pages = op.tables().map(|t| t.num_pages as usize).max();
        self.receipts.clear();
        self.receipts.reserve(pages.unwrap_or(0));
        self.arrivals.clear();
        self.arrivals.reserve(pages.unwrap_or(0));
        let run = Run {
            receipts: &mut self.receipts,
            full: Vec::new(),
            cuts: Vec::new(),
            work: WorkCounts::default(),
            done: now,
        };
        (&mut self.scan, run, &mut self.arrivals)
    }
}

/// A run in progress: the receipts kept in the scratch, the batches cut so
/// far with the index of the page each was cut after, the sum of every
/// receipt charged, and the completion instant of the latest charge.
struct Run<'s, I> {
    receipts: &'s mut Vec<WorkCounts>,
    full: Vec<ResultBatch<I>>,
    cuts: Vec<usize>,
    work: WorkCounts,
    done: I,
}

impl<I: Copy> Run<'_, I> {
    /// Runs one kernel call (a page's, or the join build's) and keeps its
    /// receipt for [`Run::charge`].
    fn kernel<T>(&mut self, kernel: impl FnOnce(&mut WorkCounts) -> T) -> T {
        let mut w = WorkCounts::default();
        let out = kernel(&mut w);
        self.receipts.push(w);
        out
    }

    /// Cuts `rows` into a batch after the page whose receipt was kept last,
    /// once they fill `cut_bytes`; [`Run::charge`] stamps it with that
    /// page's completion.
    fn cut_if_full(&mut self, rows: &mut Vec<Tuple>, row_bytes: u64, cut_bytes: u64) {
        let bytes = rows.len() as u64 * row_bytes;
        if bytes >= cut_bytes {
            self.cuts.push(self.receipts.len() - 1);
            self.full.push(ResultBatch {
                rows: std::mem::take(rows),
                aggs: None,
                bytes,
                ready_at: self.done,
            });
        }
    }

    /// Charges the kept receipts in page order, each at its page's
    /// arrival (both drained), and stamps each batch cut after a page with
    /// that page's completion.
    fn charge<S: OpSite<Instant = I>>(&mut self, site: &mut S, arrivals: &mut Vec<I>) {
        debug_assert_eq!(self.receipts.len(), arrivals.len(), "one receipt a page");
        let mut cuts = self.cuts.drain(..).zip(&mut self.full).peekable();
        for (i, (w, at)) in self.receipts.drain(..).zip(arrivals.drain(..)).enumerate() {
            self.done = site.charge(at, &w);
            self.work.absorb(&w);
            if let Some((_, batch)) = cuts.next_if(|&(page, _)| page == i) {
                batch.ready_at = self.done;
            }
        }
    }
}

/// Executes `op` (already validated) on `site`, starting at `now`.
///
/// Each table is one stream from [`OpSite::read_table`]: the kernel runs on
/// each page as it is handed over and its receipt is kept. When the stream
/// ends, the receipts are charged in page order, each at its own page's
/// arrival instant. Row streams are cut into batches as they fill
/// [`OpSite::batch_cut_bytes`], each stamped with the completion of the
/// page that filled it. `GroupAgg` checks its grant after every page, and a
/// refusal ends the stream: the refusing page is charged and no later page
/// is read. A join reads its probe side only once its build is charged and
/// granted. Every buffer the loop needs comes from `scratch`.
pub fn run_op<S: OpSite>(
    site: &mut S,
    op: &QueryOp,
    now: S::Instant,
    scratch: &mut OpScratch<S::Instant>,
) -> Result<OpRun<S::Instant>, S::Error> {
    let (scratch, mut run, arrivals) = scratch.start(op, now);
    let cut_bytes = site.batch_cut_bytes();
    let (rows, aggs, row_bytes) = match op {
        QueryOp::Scan { table, spec } => {
            let schema = &table.schema;
            let row_bytes = spec.row_bytes(schema);
            let mut rows = Vec::new();
            site.read_table(table, now, true, arrivals, |_, page| {
                run.kernel(|w| scratch.scan_page(page, schema, spec, &mut rows, w));
                run.cut_if_full(&mut rows, row_bytes, cut_bytes);
                ControlFlow::Continue(())
            })?;
            run.charge(site, arrivals);
            (rows, None, row_bytes)
        }
        QueryOp::ScanAgg { table, spec } => {
            let mut states: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            site.read_table(table, now, true, arrivals, |_, page| {
                run.kernel(|w| scratch.scan_agg_page(page, &table.schema, spec, &mut states, w));
                ControlFlow::Continue(())
            })?;
            run.charge(site, arrivals);
            (Vec::new(), Some(states), 0)
        }
        QueryOp::GroupAgg { table, spec } => {
            let mut acc = GroupTable::new();
            let mut refused = None;
            site.read_table(table, now, false, arrivals, |site, page| {
                run.kernel(|w| scratch.scan_group_agg_page(page, &table.schema, spec, &mut acc, w));
                // The group table lives in the execution's memory grant: a
                // high-cardinality grouping aborts mid-scan, exactly when
                // the site runs out.
                match site.check_grant(group_table_memory_bytes(&acc, spec.aggs.len())) {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(e) => {
                        refused = Some(e);
                        ControlFlow::Break(())
                    }
                }
            })?;
            run.charge(site, arrivals);
            if let Some(e) = refused {
                return Err(e);
            }
            let rows = group_table_rows(&acc, &spec.key_schema(&table.schema));
            let row_bytes = spec.output_schema(&table.schema).tuple_width() as u64;
            (rows, None, row_bytes)
        }
        QueryOp::Join { probe, spec } => {
            // Build phase (Figures 4 and 6): read the small table and build
            // the hash table once its last page has arrived.
            let mut build = Vec::new();
            site.read_table(&spec.build.table, now, false, arrivals, |_, page| {
                build.push(page.clone());
                ControlFlow::Continue(())
            })?;
            let build_ready = arrivals.drain(..).fold(now, |t, at| t.max(at));
            arrivals.push(build_ready);
            let ht = run.kernel(|w| JoinHashTable::build(&build, &spec.build, w));
            drop(build);
            run.charge(site, arrivals);
            site.check_grant(ht.memory_bytes())?;
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
            site.read_table(probe, run.done, false, arrivals, |_, page| {
                run.kernel(|w| probe_page(page, &probe.schema, spec, &ht, &joined, &mut sink, w));
                run.cut_if_full(&mut sink.rows, row_bytes, cut_bytes);
                ControlFlow::Continue(())
            })?;
            run.charge(site, arrivals);
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
