//! The operator driver: the one place a [`QueryOp`] turns into page reads,
//! kernel calls, CPU charges and result batches.
//!
//! The Smart SSD and the host run the same plan, so the loop that drives it
//! is written once, against an [`OpSite`] — the handful of things that
//! differ between the two environments: how pages are read and when they
//! arrive, what a [`WorkCounts`] receipt costs and on which processor, how
//! much memory an operator may hold, and how large a result batch may grow
//! before it is cut. Each arm of [`run_op`] is one serial page stream on
//! one [`ScanScratch`], read by the one table loop here: the site reads and
//! validates a page and lends it, the loop hands it straight to the kernel
//! before the next is read, so a page leaves memory once, and the kernel's receipts
//! are charged afterwards, each at its page's arrival. The parallelism the
//! figures depend on (flash channels, device cores, host DOP) is modelled
//! inside the site's timelines, not executed here.

use crate::join::{probe_page, projected_row_bytes, JoinHashTable, JoinSink};
use crate::kernels::{group_table_memory_bytes, group_table_rows, GroupTable, ScanScratch};
use crate::spec::{JoinOutput, QueryOp, ScanAggSpec, TableRef};
use crate::work::WorkCounts;
use smartssd_storage::expr::AggState;
use smartssd_storage::{PageBuf, Schema, Tuple};
use std::ops::Range;
use std::sync::Arc;

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

    /// Reads the one page at `lba`, issued at `at`, lending it with its
    /// arrival instant until the site is next used. `shareable` marks a
    /// read whose page set does not depend on the data (a full scan), which
    /// a site may serve from a concurrent execution's read of the same page.
    fn read_page(
        &mut self,
        lba: u64,
        at: Self::Instant,
        shareable: bool,
    ) -> Result<(&PageBuf, Self::Instant), Self::Error>;

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
/// charged (88 bytes a page), those pages' arrival instants, and the memo
/// of the last `ScanAgg` table's pages, the one part whose contents carry
/// from run to run. A warm scratch runs a scan without touching the heap
/// beyond its output, and a warm `ScanAgg` page without its kernel.
#[derive(Default)]
pub struct OpScratch<I> {
    scan: ScanScratch,
    receipts: Vec<WorkCounts>,
    arrivals: Vec<I>,
    memo: ScanAggMemo,
}

impl<I: Copy> OpScratch<I> {
    /// Starts a run of `op` at `now` on these buffers: empties what a run
    /// that failed mid-stream left behind, makes room for a receipt and an
    /// arrival per page, and lends out the kernels' scratch and the
    /// arrivals beside the run that keeps the receipts and the memo.
    fn start(&mut self, op: &QueryOp, now: I) -> (&mut ScanScratch, Run<'_, I>, &mut Vec<I>) {
        let pages = op.tables().map(|t| t.num_pages as usize).max();
        self.receipts.clear();
        self.receipts.reserve(pages.unwrap_or(0));
        self.arrivals.clear();
        self.arrivals.reserve(pages.unwrap_or(0));
        let run = Run {
            receipts: &mut self.receipts,
            memo: &mut self.memo,
            full: Vec::new(),
            cuts: Vec::new(),
            work: WorkCounts::default(),
            done: now,
        };
        (&mut self.scan, run, &mut self.arrivals)
    }
}

/// The one part of an [`OpScratch`] whose contents carry from one run to
/// the next: for the last `ScanAgg` table run, per page offset, the buffer
/// the kernel last ran on there, its receipt and its page-local aggregate
/// partials.
///
/// The kernel's output is a function of the page's bytes, the schema and
/// the spec alone, so a page whose buffer is pointer-identical to the one
/// memoized at its offset, under the same key, gets the stored receipt and
/// partials instead of a kernel call — exactly what the call would return.
/// The held clone keeps that buffer alive, so its address cannot be reused
/// by different bytes. Merging a page's partials into the run's states
/// equals folding its rows in directly: the states are integers and
/// `merge` is associative. Every page is still read, and every receipt
/// charged at its page's arrival, so nothing simulated moves.
///
/// The key is the operator's spec, the table's schema and its extent. A
/// run under a different key clears every entry and sizes the memo once
/// for the new table, so a memo pins one table's pages (which the site's
/// decode memo and flash hold anyway) until the next key change.
#[derive(Default)]
struct ScanAggMemo {
    key: Option<(ScanAggSpec, Arc<Schema>, Range<u64>)>,
    /// Per page offset: the buffer the kernel last ran on and its receipt.
    pages: Vec<(Option<PageBuf>, WorkCounts)>,
    /// Per page offset, that page's `spec.aggs.len()` partials (set by the
    /// page's first kernel call).
    parts: Vec<AggState>,
}

impl ScanAggMemo {
    /// Keys the memo on a run of `spec` over `table`: a key other than the
    /// last one empties every entry and sizes the memo for `table`.
    fn key(&mut self, table: &TableRef, spec: &ScanAggSpec) {
        let key = Some((spec, &table.schema, table.lbas()));
        if self.key.as_ref().map(|(s, c, l)| (s, c, l.clone())) != key {
            let n = table.num_pages as usize;
            self.pages = vec![(None, WorkCounts::default()); n];
            self.parts = vec![AggState::Count(0); n * spec.aggs.len()];
            self.key = Some((spec.clone(), Arc::clone(&table.schema), table.lbas()));
        }
    }
}

/// A run in progress: the receipts and the memo kept in the scratch, the
/// batches cut so far with the index of the page each was cut after, the
/// sum of every receipt charged, and the completion instant of the latest
/// charge.
struct Run<'s, I> {
    receipts: &'s mut Vec<WorkCounts>,
    memo: &'s mut ScanAggMemo,
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

    /// Folds the next page of the memo's table into `states` and keeps its
    /// receipt: the memoized partials and receipt when `page` is the buffer
    /// memoized at its offset, otherwise the kernel's (run on `scan`),
    /// memoized with the buffer. A `ScanAgg` run keeps one receipt a page,
    /// so the page's offset is the number kept so far.
    fn scan_agg(&mut self, scan: &mut ScanScratch, page: &PageBuf, states: &mut [AggState]) {
        let (memo, i) = (&mut *self.memo, self.receipts.len());
        let (spec, schema, _) = memo.key.as_ref().expect("keyed before the stream");
        let parts = &mut memo.parts[i * states.len()..][..states.len()];
        let (held, receipt) = &mut memo.pages[i];
        if !held.as_ref().is_some_and(|h| h.same_buffer(page.raw())) {
            for (part, agg) in parts.iter_mut().zip(&spec.aggs) {
                *part = AggState::new(agg.func);
            }
            *receipt = WorkCounts::default();
            scan.scan_agg_page(page, schema, spec, parts, receipt);
            *held = Some(page.clone());
        }
        states.iter_mut().zip(&*parts).for_each(|(s, p)| s.merge(p));
        self.receipts.push(*receipt);
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

/// Streams the pages of `table` in LBA order, each read through
/// [`OpSite::read_page`] issued at `at`, and hands each to `consume` before
/// the next is read. `consume` returns the bytes an operator under a memory
/// grant now holds, which [`OpSite::check_grant`] checks once the page's
/// loan ends; a refusal ends the stream (no later page is read) and is
/// returned, the stream itself having succeeded. Appends the arrival
/// instant of every page consumed to `arrivals`, in order.
fn read_table<S: OpSite>(
    site: &mut S,
    table: &TableRef,
    at: S::Instant,
    shareable: bool,
    arrivals: &mut Vec<S::Instant>,
    mut consume: impl FnMut(&PageBuf) -> Option<u64>,
) -> Result<Option<S::Error>, S::Error> {
    for lba in table.lbas() {
        let (page, arrived) = site.read_page(lba, at, shareable)?;
        arrivals.push(arrived);
        if let Some(Err(refused)) = consume(page).map(|resident| site.check_grant(resident)) {
            return Ok(Some(refused));
        }
    }
    Ok(None)
}

/// Executes `op` (already validated) on `site`, starting at `now`.
///
/// Each table is one stream from `read_table`, the one table loop: the
/// kernel runs on each page as it is handed over and its receipt is kept.
/// A full scan (`Scan`, `ScanAgg`) reads shareably; a `GroupAgg` stream
/// never does, since which pages it reads depends on where its grant
/// aborts, and neither does a join. When the stream ends, the receipts are
/// charged in page order, each at its own page's arrival instant. Row
/// streams are cut into batches as they fill
/// [`OpSite::batch_cut_bytes`], each stamped with the completion of the
/// page that filled it. `GroupAgg` checks its grant after every page, and a
/// refusal ends the stream: the refusing page is charged and no later page
/// is read. A join reads its probe side only once its build is charged and
/// granted. Every buffer the loop needs comes from `scratch`, and a
/// `ScanAgg` page its memo has seen in the same buffer, under the same
/// spec, schema and extent, takes its stored receipt and partials instead
/// of a kernel call.
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
            read_table(site, table, now, true, arrivals, |page| {
                run.kernel(|w| scratch.scan_page(page, schema, spec, &mut rows, w));
                run.cut_if_full(&mut rows, row_bytes, cut_bytes);
                None
            })?;
            run.charge(site, arrivals);
            (rows, None, row_bytes)
        }
        QueryOp::ScanAgg { table, spec } => {
            let mut states: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            run.memo.key(table, spec);
            read_table(site, table, now, true, arrivals, |page| {
                run.scan_agg(scratch, page, &mut states);
                None
            })?;
            run.charge(site, arrivals);
            (Vec::new(), Some(states), 0)
        }
        QueryOp::GroupAgg { table, spec } => {
            let mut acc = GroupTable::new();
            // The group table lives in the execution's memory grant: a
            // high-cardinality grouping aborts mid-scan, exactly when the
            // site runs out.
            let refused = read_table(site, table, now, false, arrivals, |page| {
                run.kernel(|w| scratch.scan_group_agg_page(page, &table.schema, spec, &mut acc, w));
                Some(group_table_memory_bytes(&acc, spec.aggs.len()))
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
            read_table(site, &spec.build.table, now, false, arrivals, |page| {
                build.push(page.clone());
                None
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
            read_table(site, probe, run.done, false, arrivals, |page| {
                run.kernel(|w| probe_page(page, &probe.schema, spec, &ht, &joined, &mut sink, w));
                run.cut_if_full(&mut sink.rows, row_bytes, cut_bytes);
                None
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
