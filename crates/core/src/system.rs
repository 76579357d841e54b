//! The assembled test bed: one host, its storage — a disk, or 1..N flash
//! devices behind one link — a catalog per device, and the machinery to run
//! a query on either side and meter it. The SAS SSD baseline is the flash
//! backend with one device whose device route is refused: its host route is
//! the Smart SSD's, read for read.

use crate::breaker::{BreakerState, BreakerTransition};
use crate::builder::{RoutePolicy, RunOptions};
use crate::config::{DeviceKind, SystemConfig};
use crate::shard::{host_pass, Shard, ShardOutcome};
use smartssd_device::{DeviceError, SmartSsd};
use smartssd_exec::{run_op, OpScratch, OpSite, QueryOp, TableRef, WorkCounts};
use smartssd_flash::FlashSsd;
use smartssd_host::{io::IoError, BufferPool, HddHostPath, HddModel, PageSource};
use smartssd_query::{
    choose_route_traced, plan::PlanError, Catalog, EngineError, PlannerInputs, Query, QueryResult,
    RawRun, Route, SessionFault,
};
use smartssd_sim::energy::{ComponentDraw, Subsystem};
use smartssd_sim::trace::pid;
use smartssd_sim::{
    mb_per_sec, Bus, CpuModel, EnergyBreakdown, FaultCounters, FaultPlan, Interval, PowerModel,
    RunTrace, SimTime, TraceLevel, Tracer, UtilizationReport,
};
use smartssd_storage::{
    Layout, PageBuf, RecordRun, RowError, Schema, TableBuilder, TableImage, Tuple,
};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Everything measured about one query run — one bar of one figure of the
/// paper.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Query name (shared with the query template).
    pub query: Arc<str>,
    /// Device under test.
    pub device: DeviceKind,
    /// Page layout of the loaded tables.
    pub layout: Layout,
    /// Where the operator actually ran.
    pub route: Route,
    /// Rows / aggregates / simulated elapsed time / work receipt.
    pub result: QueryResult,
    /// Wall-plug energy (Table 3's meters).
    pub energy: EnergyBreakdown,
    /// Per-component utilization (why this configuration is fast or slow).
    pub util: UtilizationReport,
    /// Faults absorbed along the way: ECC events, re-reads, `GET` retries,
    /// fallbacks, hedges, and wasted simulated time. All zero on a clean
    /// run.
    pub faults: FaultCounters,
    /// How each flash device's share went — route, finish time, fallback,
    /// hedge — in device order (one entry on the paper's test bed, none on
    /// a disk).
    pub shards: Vec<ShardOutcome>,
    /// The run's trace, as produced by the sink attached at build time:
    /// [`RunTrace::None`] without a sink, counters from a
    /// [`smartssd_sim::CounterSink`], or Chrome `trace_event` JSON from a
    /// [`smartssd_sim::ChromeTraceSink`].
    pub trace: RunTrace,
}

impl RunReport {
    /// Effective scan bandwidth over the operator's input, MB/s. `None`
    /// when the run finished in zero simulated time (nothing was read), so
    /// a bandwidth is undefined rather than silently `0.0`.
    pub fn effective_mbps(&self, input_bytes: u64) -> Option<f64> {
        let s = self.result.elapsed.as_secs_f64();
        (s > 0.0).then(|| input_bytes as f64 / s / 1e6)
    }
}

/// What went wrong while running a query on a [`System`].
#[derive(Debug)]
pub enum RunErrorKind {
    /// The query did not resolve against the catalog.
    Plan(PlanError),
    /// The host engine failed.
    Engine(EngineError),
    /// The device rejected or failed the session.
    Device(DeviceError),
    /// Host read-path failure.
    Io(IoError),
    /// A device session failed and could not (or was not allowed to)
    /// degrade to host execution.
    Session(SessionFault),
    /// A table image's layout does not match the system configuration.
    LayoutMismatch {
        /// The system's configured layout.
        expected: Layout,
        /// The image's layout.
        got: Layout,
    },
    /// Requested a device route on a non-smart device.
    NotSmart,
    /// The workload scheduler finished its event loop with a query that
    /// neither completed, errored, nor was shed — a bug in the scheduler,
    /// reported as a typed error instead of a panic so the caller still
    /// gets the fault counters accumulated up to that point.
    SchedulerInvariant {
        /// Submission index of the query left without an outcome.
        index: usize,
    },
    /// The run's options failed validation before any query started —
    /// the workload-level analogue of [`SystemBuilder::try_build`]
    /// rejecting a bad system configuration.
    ///
    /// [`SystemBuilder::try_build`]: crate::builder::SystemBuilder::try_build
    Config(crate::builder::ConfigError),
    /// A row given to [`System::load_table_rows`] or
    /// [`System::update_table_rows`] does not match the table's schema;
    /// nothing was loaded.
    Row(RowError),
    /// On an array of more than one device, an operator reads a table in
    /// the wrong placement: its streamed table (input or probe) must be
    /// partitioned ([`System::load_partitioned`]), so each device reads its
    /// share, and a join's build table must be whole on every device
    /// ([`System::load_table_rows`], [`System::load_table`]), so each
    /// device's probe share meets every build row. Refused before any
    /// `OPEN`.
    NotOnArray {
        /// The misplaced table.
        table: String,
        /// Devices in the array.
        devices: usize,
    },
}

impl fmt::Display for RunErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunErrorKind::Plan(e) => write!(f, "plan: {e}"),
            RunErrorKind::Engine(e) => write!(f, "engine: {e}"),
            RunErrorKind::Device(e) => write!(f, "device: {e}"),
            RunErrorKind::Io(e) => write!(f, "io: {e}"),
            RunErrorKind::Session(e) => write!(f, "session: {e}"),
            RunErrorKind::LayoutMismatch { expected, got } => {
                write!(f, "layout mismatch: system uses {expected}, image is {got}")
            }
            RunErrorKind::NotSmart => write!(f, "device route requires a Smart SSD system"),
            RunErrorKind::SchedulerInvariant { index } => write!(
                f,
                "scheduler invariant violated: query {index} neither completed nor was shed"
            ),
            RunErrorKind::Config(e) => write!(f, "config: {e}"),
            RunErrorKind::Row(e) => write!(f, "load: {e}"),
            RunErrorKind::NotOnArray { table, devices } => write!(
                f,
                "table {table} is misplaced on a {devices}-device array: a streamed table \
                 must be partitioned, a join's build table whole"
            ),
        }
    }
}

/// Failure while running a query on a [`System`]: one error type for the
/// whole run path (planning, host engine, device session, host I/O), with
/// the fault counters accumulated up to the failure attached.
#[derive(Debug)]
pub struct RunError {
    kind: RunErrorKind,
    // Boxed to keep `Result<_, RunError>` small on the happy path.
    pub(crate) faults: Box<FaultCounters>,
}

impl RunError {
    pub(crate) fn from_kind(kind: RunErrorKind) -> Self {
        Self {
            kind,
            faults: Box::default(),
        }
    }

    /// Which stage failed, and how.
    pub fn kind(&self) -> &RunErrorKind {
        &self.kind
    }

    /// Faults absorbed before the failure: ECC events, re-reads, fallbacks,
    /// and the simulated time wasted on abandoned attempts.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.faults
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind.fmt(f)
    }
}

impl std::error::Error for RunError {}

impl From<RunErrorKind> for RunError {
    fn from(kind: RunErrorKind) -> Self {
        Self::from_kind(kind)
    }
}

impl From<PlanError> for RunError {
    fn from(e: PlanError) -> Self {
        Self::from_kind(RunErrorKind::Plan(e))
    }
}

impl From<EngineError> for RunError {
    fn from(e: EngineError) -> Self {
        Self::from_kind(RunErrorKind::Engine(e))
    }
}

impl From<DeviceError> for RunError {
    fn from(e: DeviceError) -> Self {
        Self::from_kind(RunErrorKind::Device(e))
    }
}

impl From<IoError> for RunError {
    fn from(e: IoError) -> Self {
        Self::from_kind(RunErrorKind::Io(e))
    }
}

#[allow(clippy::large_enum_variant)] // one backend exists per System; no dense collections of these
pub(crate) enum Backend {
    Hdd(HddHostPath),
    /// The paper's Section 4.3 array: 1..N flash devices behind the
    /// system's one host link. A single-device system is the array with one
    /// member; a SAS SSD is that member with its device route refused.
    Flash(Vec<Shard>),
}

impl Backend {
    /// The flash devices (none on a disk).
    pub(crate) fn shards(&self) -> &[Shard] {
        match self {
            Backend::Flash(shards) => shards,
            Backend::Hdd(_) => &[],
        }
    }

    /// The flash devices, mutably.
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        match self {
            Backend::Flash(shards) => shards,
            Backend::Hdd(_) => &mut [],
        }
    }
}

/// One complete test bed: storage + host + catalog.
///
/// Build with [`crate::SystemBuilder`]; run single queries with
/// [`System::run`] and concurrent streams with
/// [`System::run_workload`](crate::workload).
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) backend: Backend,
    /// The host interface every flash device shares (a disk folds its link
    /// into the drive's own timing and never touches it).
    pub(crate) link: Bus,
    pub(crate) host_cpu: CpuModel,
    /// One catalog per device, by device index: a table partitioned over N
    /// Smart SSDs has its own extent on each. A query resolves to one
    /// operator per entry.
    pub(crate) catalogs: Vec<Catalog>,
    /// The first LBA no table occupies on any device.
    pub(crate) next_lba: u64,
    /// Tables with buffer-pool updates not yet checkpointed to the device.
    /// Pushdown against them would read stale data (paper Section 4.3).
    dirty: std::collections::HashSet<String>,
    /// Tables every device holds whole (the rest are partitioned, one share
    /// per device): the placement an array's operators are checked
    /// against.
    whole: std::collections::HashSet<String>,
    /// Run-scoped fault accounting the component counters do not carry:
    /// fallbacks taken, wasted time, `GET` retries, slow trips.
    pub(crate) run_faults: FaultCounters,
    /// Shared handle to the trace sink attached at build time (a no-op
    /// handle when none was).
    pub(crate) tracer: Tracer,
    /// Monotone simulated clock the per-device breakers live on. Each
    /// run/workload starts its own timeline at zero; this accumulates their
    /// lengths so breaker timestamps stay comparable across calls.
    pub(crate) breaker_clock: SimTime,
}

impl System {
    /// Assembles the system — a disk, or `cfg.devices` flash devices — and
    /// threads the tracer through the link, the host CPU and the disk or
    /// every flash device.
    pub(crate) fn assemble(cfg: SystemConfig, tracer: Tracer) -> Self {
        let mbps = mb_per_sec(cfg.interface.effective_mbps());
        let mut link = Bus::new("host-interface", mbps, 0);
        link.set_tracer(tracer.clone(), pid::INTERFACE, 0);
        let mut host_cpu = CpuModel::new("host-cpu", cfg.host_cpu_cores, cfg.host_cpu_hz);
        host_cpu.set_tracer(tracer.clone(), pid::HOST_CPU);
        let backend = match cfg.device {
            DeviceKind::Hdd => Backend::Hdd(HddHostPath::new(
                HddModel::new(cfg.hdd.clone()),
                cfg.bufferpool_pages,
            )),
            DeviceKind::Ssd | DeviceKind::SmartSsd => {
                let mut shards: Vec<Shard> =
                    (0..cfg.devices).map(|d| Shard::new(&cfg, d)).collect();
                for shard in &mut shards {
                    shard.dev.set_tracer(tracer.clone());
                }
                Backend::Flash(shards)
            }
        };
        Self {
            catalogs: vec![Catalog::new(); backend.shards().len().max(1)],
            backend,
            link,
            host_cpu,
            next_lba: 0,
            dirty: std::collections::HashSet::new(),
            whole: std::collections::HashSet::new(),
            run_faults: FaultCounters::default(),
            tracer,
            breaker_clock: SimTime::ZERO,
            cfg,
        }
    }

    /// Device `d`'s circuit-breaker state (always `Closed` on a disk, which
    /// has no device route to gate).
    pub fn breaker_state(&self, d: usize) -> BreakerState {
        let shard = self.backend.shards().get(d);
        shard.map_or(BreakerState::Closed, |s| s.breaker.state())
    }

    /// Flash device `d` (diagnostics: open sessions, flash statistics,
    /// CPU busy time).
    ///
    /// # Panics
    ///
    /// On a disk system, or if `d` is not below [`SystemConfig::devices`].
    pub fn device(&self, d: usize) -> &SmartSsd {
        &self.backend.shards()[d].dev
    }

    /// Flash device `d`, mutably — the hook that degrades one member of an
    /// array (e.g. arms its crash rate).
    ///
    /// # Panics
    ///
    /// As [`System::device`].
    pub fn device_mut(&mut self, d: usize) -> &mut SmartSsd {
        &mut self.backend.shards_mut()[d].dev
    }

    /// Arms a scripted gray-failure plan: device `d` gets the plan's view
    /// of it, split between its flash path (slowdown windows, ECC bursts)
    /// and its runtime (crash instants, CPU slowdowns). An empty plan
    /// disarms. Scenarios replay bit-exactly: the plan carries no
    /// randomness.
    pub fn arm_fault_plan(&mut self, plan: &FaultPlan) {
        for (d, shard) in self.backend.shards_mut().iter_mut().enumerate() {
            let view = plan.for_device(d);
            shard.dev.flash.arm_fault_plan(view.clone());
            shard.dev.config_mut().fault_plan = view;
        }
    }

    /// System configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The first device's table catalog (on an array, every device
    /// registers each table under the same name and first LBA).
    pub fn catalog(&self) -> &Catalog {
        &self.catalogs[0]
    }

    /// Loads a prebuilt table image whole onto every device, at the same
    /// first LBA, and registers it in each device's catalog. On an array a
    /// whole table is what a join builds on; a table an operator streams is
    /// loaded with [`System::load_partitioned`].
    pub fn load_table(&mut self, name: &str, img: &TableImage) -> Result<(), RunError> {
        let first_lba = self.next_lba;
        for d in 0..self.catalogs.len() {
            self.load_image(d, name, img, first_lba)?;
        }
        self.whole.insert(name.to_string());
        Ok(())
    }

    /// Writes `img` to device `d` from `first_lba` on and registers it in
    /// that device's catalog.
    pub(crate) fn load_image(
        &mut self,
        d: usize,
        name: &str,
        img: &TableImage,
        first_lba: u64,
    ) -> Result<(), RunError> {
        if img.layout() != self.cfg.layout {
            return Err(RunError::from_kind(RunErrorKind::LayoutMismatch {
                expected: self.cfg.layout,
                got: img.layout(),
            }));
        }
        let tref = TableRef {
            first_lba,
            num_pages: img.num_pages() as u64,
            schema: img.schema().clone(),
            layout: img.layout(),
        };
        match &mut self.backend {
            Backend::Hdd(path) => {
                for (i, page) in img.pages().iter().enumerate() {
                    path.hdd
                        .write(first_lba + i as u64, page.raw().clone(), SimTime::ZERO);
                }
            }
            Backend::Flash(shards) => {
                shards[d].dev.load_table(img, first_lba)?;
            }
        }
        self.next_lba = self.next_lba.max(first_lba + tref.num_pages);
        self.catalogs[d].register(name, tref);
        Ok(())
    }

    /// Builds a table in the system's configured layout from a row stream
    /// and loads it whole onto every device ([`System::load_table`]). A row
    /// that does not match `schema` is a [`RunErrorKind::Row`] naming its
    /// index in `rows`, and no device is written.
    pub fn load_table_rows<I>(
        &mut self,
        name: &str,
        schema: &Arc<Schema>,
        rows: I,
    ) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut b = TableBuilder::new(name, Arc::clone(schema), self.cfg.layout);
        b.try_extend(rows)
            .map_err(|e| RunError::from_kind(RunErrorKind::Row(e)))?;
        self.load_table(name, &b.finish())
    }

    /// Loads a table partitioned round-robin across the flash devices; each
    /// registers its own share under the shared name. A row that does not
    /// match `schema` is a [`RunErrorKind::Row`] naming its index in
    /// `rows`, and no device is written: every partition is built before
    /// the first is loaded. On one device the one share is the whole table:
    /// this is [`System::load_table_rows`].
    ///
    /// On more devices, each row is checked and encoded once into its
    /// device's run of records (the record is the row's bytes on the page,
    /// a third of its `Tuple`), sized up front when `rows` knows its
    /// length. The pages are then built one device at a time, each run
    /// dropped once its image is built, so each device's pages lie together
    /// in memory. That contiguity is the rule here: streaming the rows into
    /// N open builders at once interleaves the devices' pages and cost 15 %
    /// of `fleet_gray`'s arrivals per second in a device's warm scans.
    pub fn load_partitioned<I>(
        &mut self,
        name: &str,
        schema: &Arc<Schema>,
        rows: I,
    ) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let n = self.catalogs.len();
        if n == 1 {
            return self.load_table_rows(name, schema, rows);
        }
        let rows = rows.into_iter();
        let share = |d: usize| match rows.size_hint() {
            (lo, Some(hi)) if lo == hi => (hi + n - 1 - d) / n,
            _ => 0,
        };
        let mut runs: Vec<RecordRun> = (0..n)
            .map(|d| RecordRun::with_capacity(Arc::clone(schema), share(d)))
            .collect();
        for (i, row) in rows.enumerate() {
            runs[i % n].try_push(&row).map_err(|error| {
                let row = i as u64;
                RunError::from_kind(RunErrorKind::Row(RowError { row, error }))
            })?;
        }
        let build = |run: RecordRun| {
            let mut b = TableBuilder::new(name, Arc::clone(schema), self.cfg.layout);
            b.extend_records(run.records());
            b.finish()
        };
        let images: Vec<TableImage> = runs.into_iter().map(build).collect();
        let first_lba = self.next_lba;
        for (d, img) in images.iter().enumerate() {
            self.load_image(d, name, img, first_lba)?;
        }
        self.whole.remove(name);
        Ok(())
    }

    /// Ends the load phase: clears all timing state so the next run starts
    /// from a quiet machine (the paper's cold-run protocol; the pool stays
    /// as-is and is empty unless [`Self::warm_cache`] was called).
    pub fn finish_load(&mut self) {
        self.reset_run_timing();
    }

    /// Device sessions currently open (always 0 on non-smart systems).
    /// After any workload run — faulted, shed, or cancelled — this must be
    /// back to zero; leak checks in the test suite hold the scheduler to
    /// that.
    pub fn open_device_sessions(&self) -> usize {
        let shards = self.backend.shards().iter();
        shards.map(|s| s.dev.open_sessions()).sum()
    }

    /// Clears all timelines and counters (between runs).
    pub(crate) fn reset_run_timing(&mut self) {
        self.host_cpu.reset();
        self.link.reset();
        match &mut self.backend {
            Backend::Hdd(p) => p.reset_timing(),
            Backend::Flash(shards) => shards.iter_mut().for_each(Shard::reset_timing),
        }
    }

    /// Empties the buffer pool (cold-run protocol).
    pub fn clear_cache(&mut self) {
        match &mut self.backend {
            Backend::Hdd(p) => p.pool.clear(),
            Backend::Flash(shards) => shards.iter_mut().for_each(|s| s.pool.clear()),
        }
    }

    /// The host buffer pools, one per device (a disk's one).
    pub(crate) fn pools(&self) -> impl Iterator<Item = &BufferPool> {
        let disk = match &self.backend {
            Backend::Hdd(p) => Some(&p.pool),
            Backend::Flash(_) => None,
        };
        disk.into_iter()
            .chain(self.backend.shards().iter().map(|s| &s.pool))
    }

    /// Pre-reads the first `fraction` of each device's share of a table
    /// into that device's buffer pool (the Discussion-section cache
    /// experiments). Timing of the warm-up is discarded.
    pub fn warm_cache(&mut self, table: &str, fraction: f64) -> Result<(), RunError> {
        let fraction = fraction.clamp(0.0, 1.0);
        for d in 0..self.catalogs.len() {
            let tref = self.catalogs[d].get(table);
            let tref = tref.ok_or_else(|| RunError::from(PlanError::UnknownTable(table.into())))?;
            let n = (tref.num_pages as f64 * fraction) as u64;
            for lba in tref.first_lba..tref.first_lba + n {
                match &mut self.backend {
                    Backend::Hdd(p) => {
                        p.read_page(lba, SimTime::ZERO)?;
                    }
                    Backend::Flash(shards) => {
                        shards[d]
                            .host_view(&mut self.link, self.cfg.interface.command_latency_ns())
                            .read_page(lba, SimTime::ZERO)?;
                    }
                }
            }
        }
        self.reset_run_timing();
        Ok(())
    }

    /// Fraction of a table currently resident in the buffer pools, over
    /// every device's share.
    pub fn residency(&self, table: &str) -> f64 {
        self.residency_over(self.catalogs.iter().map(|c| c.get(table)))
    }

    /// Fraction of the given per-device extents (by device index) resident
    /// in each device's buffer pool.
    fn residency_over<'a>(&self, trefs: impl Iterator<Item = Option<&'a TableRef>>) -> f64 {
        let extents = self.pools().zip(trefs).filter_map(|(p, t)| Some((p, t?)));
        let (resident, pages) = extents.fold((0, 0), |(r, n), (pool, t)| {
            (r + pool.resident(t.first_lba, t.num_pages), n + t.num_pages)
        });
        // No pages means none resident: 0 / 1.
        resident as f64 / pages.max(1) as f64
    }

    /// Replaces a table's contents with a new row set in the table's own
    /// placement — whole on every device as [`System::load_table_rows`]
    /// loads it, or partitioned as [`System::load_partitioned`] does: each
    /// device's new image is written to a fresh extent, its catalog
    /// re-points, and its old extent is trimmed (on flash, the stale pages
    /// become GC fodder). Timing of the rewrite is charged to the devices and then
    /// reset, mirroring an untimed maintenance window. A row that does not
    /// match the table's schema is a [`RunErrorKind::Row`]; the catalogs,
    /// the devices, the buffer pool and the dirty set are then as they were.
    pub fn update_table_rows<I>(&mut self, name: &str, rows: I) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let schema = self
            .catalog()
            .get(name)
            .map(|t| Arc::clone(&t.schema))
            .ok_or_else(|| RunError::from(PlanError::UnknownTable(name.into())))?;
        let old: Vec<_> = self
            .catalogs
            .iter()
            .map(|c| c.get(name).map(extent))
            .collect();
        if self.whole.contains(name) {
            self.load_table_rows(name, &schema, rows)?;
        } else {
            self.load_partitioned(name, &schema, rows)?;
        }
        for (shard, old) in self.backend.shards_mut().iter_mut().zip(old) {
            for lba in old.unwrap_or_default() {
                shard.trim(lba)?;
            }
        }
        // Cached pages of the old extent are stale now.
        self.clear_cache();
        self.reset_run_timing();
        Ok(())
    }

    /// Marks a table as having uncheckpointed buffer-pool updates. While
    /// dirty, the on-device copy is stale: pushdown is *incorrect*, not
    /// merely slow, so every run is forced onto the host (paper Section
    /// 4.3: "pushing the query processing to the S\[S\]D may not be
    /// feasible" when the buffer pool holds a fresher copy).
    pub fn mark_dirty(&mut self, table: &str) {
        self.dirty.insert(table.to_string());
    }

    /// Checkpoints a table: charges the write-back of its pages to every
    /// device that holds a share of it and clears the dirty flag, making
    /// pushdown legal again — only once every page is written, so a failed
    /// checkpoint leaves the table dirty.
    pub fn checkpoint(&mut self, table: &str) -> Result<(), RunError> {
        if !self.dirty.contains(table) {
            return Ok(());
        }
        let lbas = self
            .catalog()
            .get(table)
            .map(extent)
            .ok_or_else(|| RunError::from(PlanError::UnknownTable(table.into())))?;
        // Re-write the extents through the devices' write paths (the data
        // is unchanged in this model; the cost is what matters).
        match &mut self.backend {
            Backend::Hdd(path) => {
                for lba in lbas {
                    if let Some((data, _)) = path.hdd.read(lba, SimTime::ZERO) {
                        path.hdd.write(lba, data, SimTime::ZERO);
                    }
                }
            }
            Backend::Flash(shards) => {
                for (shard, catalog) in shards.iter_mut().zip(&self.catalogs) {
                    let flash = &mut shard.dev.flash;
                    for lba in catalog.get(table).map(extent).unwrap_or_default() {
                        // What a checkpoint writes is the buffer pool's
                        // copy, which here is the stored page: it is taken
                        // as is, not read. A modelled read can fail or come
                        // back corrupted, and a corrupted copy written back
                        // would stick.
                        let (data, _) = flash
                            .peek_page(lba)
                            .map_err(|e| RunError::from(IoError::Flash(e)))?;
                        flash
                            .write(lba, data, SimTime::ZERO)
                            .map_err(|e| RunError::from(IoError::Flash(e)))?;
                    }
                }
            }
        }
        self.dirty.remove(table);
        self.reset_run_timing();
        Ok(())
    }

    /// Whether a table currently has uncheckpointed updates.
    pub fn is_dirty(&self, table: &str) -> bool {
        self.dirty.contains(table)
    }

    /// Whether any table in the operator's input extents is dirty. Tables
    /// are matched by whole extent; an empty table has no pages to be stale
    /// and shares its `first_lba` with the table loaded after it.
    fn op_touches_dirty(&self, op: &QueryOp) -> bool {
        if self.dirty.is_empty() {
            return false;
        }
        op.tables().any(|tref| {
            tref.num_pages > 0
                && self.dirty.iter().any(|name| {
                    let dirty = self.catalog().get(name);
                    dirty.is_some_and(|c| extent(c) == extent(tref))
                })
        })
    }

    /// Runs a query under the given options: the route policy picks the
    /// side (natural, forced, or planner-decided) and `verbosity` gates
    /// what the attached trace sink records.
    ///
    /// A single run *is* a one-arrival workload at time zero over the
    /// linked protocol (see [`System::run_workload`](crate::workload)), so
    /// it follows the same rules as every other engine. Correctness always
    /// wins over routing: a dirty input forces the host route (Section
    /// 4.3). If the device rejects the session or a recoverable mid-run
    /// fault abandons it, the run transparently falls back to the host, as
    /// a production DBMS would — the host re-run starts at the fault, so
    /// the wasted device attempt stays in `elapsed`, energy and
    /// utilization. The collected trace comes back in
    /// [`RunReport::trace`]; on failure the returned [`RunError`] carries
    /// the fault counters accumulated so far.
    pub fn run(&mut self, query: &Query, opts: RunOptions) -> Result<RunReport, RunError> {
        let (done, trace) = self
            .run_single(query, opts)
            .map_err(|e| self.with_faults(e))?;
        Ok(self.finish_report(query, done.route, done.result, trace))
    }

    /// Attaches the fault counters accumulated so far to a run's error.
    pub(crate) fn with_faults(&self, mut e: RunError) -> RunError {
        e.faults.absorb(&self.current_faults());
        e
    }

    /// Resolves a query against every device's catalog: one operator per
    /// device, over that device's placement of the tables. On more than one
    /// device the placement must fit the operator: the streamed table (the
    /// first of [`QueryOp::tables`]) partitioned, a join's build table (the
    /// second) whole; any other table is [`RunErrorKind::NotOnArray`]
    /// before any `OPEN`.
    pub(crate) fn resolve_ops(&self, query: &Query) -> Result<Rc<[QueryOp]>, RunError> {
        let ops = self.catalogs.iter().map(|c| query.resolve(c));
        let ops: Rc<[QueryOp]> = ops.collect::<Result<_, _>>()?;
        let devices = self.catalogs.len();
        let mut tables = query.op.tables().enumerate();
        let misplaced = tables.find(|&(i, t)| self.whole.contains(t) != (i == 1));
        match misplaced {
            Some((_, table)) if devices > 1 => {
                let table = table.clone();
                Err(RunErrorKind::NotOnArray { table, devices }.into())
            }
            _ => Ok(ops),
        }
    }

    /// Resolves the route a policy picks for an operator, applying the
    /// dirty-data correctness rule first: a dirty input means the on-device
    /// copy is stale, so the device route is not available (Section 4.3)
    /// and no planner runs. Only a Smart SSD has a device route: elsewhere
    /// the natural and planned routes are the host, and a forced device
    /// route on clean data is refused before anything runs. `sampled` is
    /// the planner's memo of the operator's sampled receipt: empty until a
    /// planned route first needs it.
    pub(crate) fn resolve_route(
        &self,
        ops: &[QueryOp],
        policy: &RoutePolicy,
        sampled: &mut Option<WorkCounts>,
    ) -> Result<Route, RunError> {
        if self.op_touches_dirty(&ops[0]) {
            return Ok(Route::Host);
        }
        let smart = self.cfg.device == DeviceKind::SmartSsd;
        let route = match policy {
            RoutePolicy::Natural | RoutePolicy::Planned if !smart => Route::Host,
            RoutePolicy::Natural => Route::Device,
            RoutePolicy::Force(r) => *r,
            RoutePolicy::Planned => self.plan_route(ops, sampled)?,
        };
        if route == Route::Device && !smart {
            return Err(RunErrorKind::NotSmart.into());
        }
        Ok(route)
    }

    /// Planner-decided routing over the first device's operator, on this
    /// system's own machine ([`SystemConfig::planner`]): residency of the
    /// streamed table from every device's buffer pool, read at every call,
    /// and the operator's work from [`System::sample_work`], taken once
    /// into `sampled`.
    fn plan_route(
        &self,
        ops: &[QueryOp],
        sampled: &mut Option<WorkCounts>,
    ) -> Result<Route, RunError> {
        let work = match *sampled {
            Some(work) => work,
            None => *sampled.insert(self.sample_work(&ops[0])?),
        };
        let inputs = PlannerInputs {
            residency: self.residency_over(ops.iter().map(|op| op.tables().next())),
            work,
        };
        Ok(choose_route_traced(&ops[0], &self.cfg.planner(), &inputs, &self.tracer).0)
    }

    /// The work `op` does over its whole input on the first device,
    /// measured the way optimizer statistics are: `op` runs through the
    /// one operator driver on every [`SAMPLE_STRIDE`]-th page of its
    /// streamed table (and every page of a join's build table), read from
    /// flash untimed and uncounted, as a checkpoint reads. The streamed
    /// pages' receipt is scaled to the table and the build's counted once.
    /// An aggregate's output (partials, or grouped rows) is counted by no
    /// kernel: the sample's own final batch enters the receipt once,
    /// unscaled, since a table's partials are as many as its sample's and
    /// its groups at least as many.
    fn sample_work(&self, op: &QueryOp) -> Result<WorkCounts, RunError> {
        let mut sample = op.clone();
        let (QueryOp::Scan { table, .. }
        | QueryOp::ScanAgg { table, .. }
        | QueryOp::GroupAgg { table, .. }
        | QueryOp::Join { probe: table, .. }) = &mut sample;
        let (pages, taken) = (table.num_pages, table.num_pages.div_ceil(SAMPLE_STRIDE));
        table.num_pages = taken;
        let mut site = SampleSite {
            flash: &self.backend.shards()[0].dev.flash,
            streamed: table.lbas(),
            page: None,
            once: WorkCounts::default(),
            sampled: WorkCounts::default(),
        };
        let run = run_op(&mut site, &sample, Part::Once, &mut OpScratch::default())?;
        let mut work = site.once;
        work.absorb(&site.sampled.scaled(pages, taken.max(1)));
        if run.last.aggs.is_some() || matches!(op, QueryOp::GroupAgg { .. }) {
            work.out_tuples += run.last.rows.len() as u64;
            work.out_bytes += run.last.bytes;
        }
        Ok(work)
    }

    /// Closes a run of length `end`: emits its single top-level span on the
    /// RUN track (so the trace's root covers exactly the run), advances the
    /// breakers' monotone clock past it, and pulls every device's breaker
    /// transitions (re-based onto the run's timeline, in device order) into
    /// the trace and the report.
    pub(crate) fn end_run(
        &mut self,
        name: &str,
        end: SimTime,
        args: &[(&str, f64)],
    ) -> (Vec<BreakerTransition>, RunTrace) {
        let iv = Interval {
            start: SimTime::ZERO,
            end,
        };
        self.tracer
            .span(TraceLevel::Protocol, pid::RUN, 0, name, "run", iv, args);
        let base = self.breaker_clock;
        self.breaker_clock = base + end;
        let mut transitions = Vec::new();
        for shard in self.backend.shards_mut() {
            shard.drain_breaker_transitions(base, &self.tracer, &mut transitions);
        }
        (transitions, self.tracer.finish_run())
    }

    /// One host-route pass over device `d`'s share of the data, started at
    /// simulated time `now` (a workload starts each query at its arrival, a
    /// fallback at its fault): the block path of whatever backs the system,
    /// pages crossing the shared link. Returns the raw pass, so the caller
    /// can merge its aggregate states with other devices' partials.
    pub(crate) fn run_host(
        &mut self,
        d: usize,
        op: &QueryOp,
        now: SimTime,
    ) -> Result<RawRun, RunError> {
        let (cpu, cfg, tracer) = (&mut self.host_cpu, &self.cfg, &self.tracer);
        match &mut self.backend {
            // A disk serves only cold cells: its passes keep no scratch.
            Backend::Hdd(path) => {
                host_pass(path, &mut OpScratch::default(), cpu, cfg, tracer, op, now)
            }
            Backend::Flash(shards) => {
                shards[d].host_pass(&mut self.link, cpu, cfg, tracer, op, now)
            }
        }
    }

    /// Fault counters as of right now: what the run banked plus every
    /// device's live view.
    pub(crate) fn current_faults(&self) -> FaultCounters {
        let mut faults = self.run_faults;
        let shards = self.backend.shards().iter();
        shards.for_each(|s| faults.absorb(&s.faults()));
        faults
    }

    /// Assembles energy and utilization accounting for a finished run.
    fn finish_report(
        &self,
        query: &Query,
        route: Route,
        result: QueryResult,
        trace: RunTrace,
    ) -> RunReport {
        let elapsed = result.elapsed;
        let host_busy = self.host_cpu.busy_total_ns();
        let link_busy = self.link.busy_total_ns();
        // Energy and utilization are metered for the paper's one-device test
        // bed; only a Smart SSD's embedded CPU is a component of the meter.
        let (device_busy, device_cpu) = match &self.backend {
            Backend::Hdd(p) => (p.hdd.busy_total_ns(), None),
            Backend::Flash(shards) => (
                shards[0].dev.flash.dram_busy_ns(),
                (self.cfg.device == DeviceKind::SmartSsd).then(|| shards[0].dev.cpu()),
            ),
        };
        let pw = &self.cfg.power;
        let mut draws = vec![
            ComponentDraw {
                name: "host-cpu-active".into(),
                active_w: pw.host_active_w,
                busy_ns: host_busy.min(elapsed.as_nanos()),
                subsystem: Subsystem::Host,
            },
            ComponentDraw {
                name: "host-io-wait".into(),
                active_w: pw.host_wait_w,
                busy_ns: elapsed.as_nanos().saturating_sub(host_busy),
                subsystem: Subsystem::Host,
            },
        ];
        if device_busy > 0 {
            draws.push(ComponentDraw {
                name: "io-device-active".into(),
                active_w: pw.io_active_w(self.cfg.device),
                busy_ns: elapsed.as_nanos(),
                subsystem: Subsystem::Io,
            });
        }
        let power = PowerModel::new(pw.system_idle_w, pw.io_idle_w(self.cfg.device));
        let energy = power.energy(elapsed, &draws);

        let mut util = UtilizationReport::new(elapsed);
        // A host pass runs on `host_dop` threads, each on its own core.
        let host_lanes = self.cfg.host_dop.min(self.cfg.host_cpu_cores);
        util.record("host-cpu-thread", host_busy, host_lanes);
        util.record("io-device", device_busy, 1);
        if link_busy > 0 {
            util.record("host-interface", link_busy, 1);
        }
        if let Some(cpu) = device_cpu {
            util.record("device-cpu", cpu.busy_total_ns(), cpu.cores());
        }
        let faults = self.current_faults();
        let shards = self.backend.shards().iter().map(|s| s.last.clone());
        RunReport {
            query: Arc::clone(&query.name),
            device: self.cfg.device,
            layout: self.cfg.layout,
            route,
            result,
            energy,
            util,
            faults,
            shards: shards.collect(),
            trace,
        }
    }
}

/// The planner's sample reads every `SAMPLE_STRIDE`-th page of an
/// operator's streamed table.
const SAMPLE_STRIDE: u64 = 8;

/// Which part of a sampled receipt a kernel call's work belongs to: the
/// part counted once (a join's build) or the streamed table's sampled
/// pages, scaled to the table. The driver charges every receipt at its
/// page's arrival, so this tag is the sample site's clock: a streamed page
/// arrives at `Streamed`, a build page (and the build it feeds) at `Once`.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
enum Part {
    #[default]
    Once,
    Streamed,
}

/// Where [`System::sample_work`] runs an operator: one device's flash,
/// read with [`FlashSsd::peek_page`] and no timing, count or cache, and
/// no processor: a charge only files the receipt under its part.
struct SampleSite<'a> {
    flash: &'a FlashSsd,
    /// The sample's extent of the streamed table: its offset `i` reads the
    /// table's page `i * SAMPLE_STRIDE`.
    streamed: std::ops::Range<u64>,
    /// The page last read, held while the driver borrows it.
    page: Option<PageBuf>,
    once: WorkCounts,
    sampled: WorkCounts,
}

impl OpSite for SampleSite<'_> {
    type Instant = Part;
    type Error = RunError;

    fn read_page(
        &mut self,
        lba: u64,
        _at: Part,
        _shareable: bool,
    ) -> Result<(&PageBuf, Part), RunError> {
        let first = self.streamed.start;
        let (lba, part) = if self.streamed.contains(&lba) {
            (first + (lba - first) * SAMPLE_STRIDE, Part::Streamed)
        } else {
            (lba, Part::Once)
        };
        let (data, _) = self.flash.peek_page(lba).map_err(IoError::Flash)?;
        let page = PageBuf::from_bytes(data).map_err(IoError::Page)?;
        Ok((self.page.insert(page), part))
    }

    fn charge(&mut self, at: Part, work: &WorkCounts) -> Part {
        match at {
            Part::Once => self.once.absorb(work),
            Part::Streamed => self.sampled.absorb(work),
        }
        at
    }
}

/// The LBAs a table occupies.
fn extent(t: &TableRef) -> std::ops::Range<u64> {
    t.first_lba..t.first_lba + t.num_pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SystemBuilder;
    use crate::config::DeviceKind;
    use smartssd_exec::spec::ScanAggSpec;
    use smartssd_query::{Finalize, OpTemplate};
    use smartssd_storage::expr::{AggSpec, Expr, Pred};
    use smartssd_storage::{DataType, Datum};

    fn sys_with_rows(kind: DeviceKind, n: i32) -> System {
        let schema =
            smartssd_storage::Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut sys = SystemBuilder::new(kind, Layout::Pax).build();
        sys.load_table_rows(
            "t",
            &schema,
            (0..n).map(|k| vec![Datum::I32(k), Datum::I64(k as i64)]),
        )
        .unwrap();
        sys.finish_load();
        sys
    }

    fn count_query() -> Query {
        Query {
            name: "count".into(),
            op: OpTemplate::ScanAgg {
                table: "t".into(),
                spec: ScanAggSpec {
                    pred: Pred::Const(true),
                    aggs: vec![AggSpec::sum(Expr::col(1))],
                },
            },
            finalize: Finalize::AggRow,
        }
    }

    #[test]
    fn report_carries_device_layout_and_route() {
        let mut sys = sys_with_rows(DeviceKind::SmartSsd, 5_000);
        let r = sys.run(&count_query(), RunOptions::default()).unwrap();
        assert_eq!(r.device, DeviceKind::SmartSsd);
        assert_eq!(r.layout, Layout::Pax);
        assert_eq!(r.route, Route::Device);
        assert_eq!(&*r.query, "count");
        assert!(r.trace.is_none(), "no sink attached => no trace");
    }

    #[test]
    fn effective_mbps_is_bytes_over_elapsed() {
        let mut sys = sys_with_rows(DeviceKind::Ssd, 50_000);
        let r = sys.run(&count_query(), RunOptions::default()).unwrap();
        let pages = sys.catalog().get("t").unwrap().num_pages;
        let bytes = pages * smartssd_storage::PAGE_SIZE as u64;
        let mbps = r.effective_mbps(bytes).expect("non-zero elapsed");
        let manual = bytes as f64 / r.result.elapsed.as_secs_f64() / 1e6;
        assert!((mbps - manual).abs() < 1e-6);
        assert!(mbps > 0.0);
    }

    #[test]
    fn effective_mbps_of_zero_elapsed_is_none() {
        let mut sys = sys_with_rows(DeviceKind::Ssd, 1_000);
        let mut r = sys.run(&count_query(), RunOptions::default()).unwrap();
        r.result.elapsed = SimTime::ZERO;
        assert_eq!(r.effective_mbps(1_000_000), None);
    }

    #[test]
    fn layout_mismatch_is_rejected_at_load() {
        let schema = smartssd_storage::Schema::from_pairs(&[("k", DataType::Int32)]);
        let mut b = TableBuilder::new("t", schema, Layout::Nsm);
        b.push(vec![Datum::I32(1)]);
        let img = b.finish();
        let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
        assert!(matches!(
            sys.load_table("t", &img).unwrap_err().kind(),
            RunErrorKind::LayoutMismatch { .. }
        ));
    }

    #[test]
    fn device_route_on_plain_ssd_is_rejected() {
        let mut sys = sys_with_rows(DeviceKind::Ssd, 100);
        let err = sys
            .run(&count_query(), RunOptions::routed(Route::Device))
            .unwrap_err();
        assert!(matches!(err.kind(), RunErrorKind::NotSmart));
        assert_eq!(err.fault_counters().fallbacks, 0);
    }

    #[test]
    fn energy_meters_are_ordered_system_over_io() {
        for kind in [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::SmartSsd] {
            let mut sys = sys_with_rows(kind, 20_000);
            let r = sys.run(&count_query(), RunOptions::default()).unwrap();
            assert!(r.energy.system_kj() > r.energy.io_kj(), "{kind:?}");
            assert!(r.energy.over_idle_kj() > 0.0, "{kind:?}");
        }
    }

    /// A row of the wrong arity, an `I64` in an `Int32` column, an 11-byte
    /// string in a `Char(10)` column, and PART rows given as LINEITEM: each
    /// is a typed error naming the row and column, from both
    /// `load_table_rows` and `update_table_rows`, and leaves the catalog,
    /// the flash, the buffer pool and the dirty set as they were, so Q6
    /// still answers from the old image.
    #[test]
    fn malformed_rows_are_typed_errors_that_change_nothing() {
        use smartssd_storage::TupleError;
        use smartssd_workload::tpch::{self, lineitem_cols as l};
        use smartssd_workload::{q6, queries::LINEITEM};
        let good = || tpch::lineitem_rows(0.001, 7);
        let spliced = |f: &dyn Fn(&mut Tuple)| {
            let mut rows: Vec<Tuple> = good().take(10).collect();
            f(&mut rows[3]);
            rows
        };
        let cases: [(Vec<Tuple>, u64, Option<usize>); 4] = [
            (spliced(&|t| drop(t.pop())), 3, None),
            (
                spliced(&|t| t[l::LINENUMBER] = Datum::I64(1)),
                3,
                Some(l::LINENUMBER),
            ),
            (
                spliced(&|t| t[l::SHIPMODE] = Datum::str("ELEVENBYTES")),
                3,
                Some(l::SHIPMODE),
            ),
            (tpch::part_rows(0.001, 7).collect(), 0, None),
        ];
        let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
        sys.load_table_rows(LINEITEM, &tpch::lineitem_schema(), good())
            .unwrap();
        sys.finish_load();
        let old = sys.run(&q6(), RunOptions::default()).unwrap().result;
        sys.warm_cache(LINEITEM, 1.0).unwrap();
        sys.mark_dirty("other");
        let extent = |sys: &System| {
            let t = sys.catalog().get(LINEITEM).unwrap();
            (t.first_lba, t.num_pages)
        };
        let before = extent(&sys);
        let writes = sys.device(0).flash.stats().writes;
        for (rows, row, col) in cases {
            let errs = [
                sys.load_table_rows("fresh", &tpch::lineitem_schema(), rows.clone()),
                sys.update_table_rows(LINEITEM, rows),
            ];
            for err in errs.map(Result::unwrap_err) {
                let RunErrorKind::Row(e) = err.kind() else {
                    panic!("not a row error: {err}");
                };
                assert_eq!(e.row, row, "{err}");
                match (&e.error, col) {
                    (TupleError::Arity { expected: 16, .. }, None) => {}
                    (TupleError::Mismatch { col: c, .. }, Some(col)) => assert_eq!(*c, col),
                    _ => panic!("{err}"),
                }
            }
            assert!(sys.catalog().get("fresh").is_none());
            assert_eq!(extent(&sys), before);
            assert_eq!(sys.device(0).flash.stats().writes, writes);
            assert_eq!(sys.residency(LINEITEM), 1.0);
            assert!(sys.is_dirty("other") && !sys.is_dirty(LINEITEM));
        }
        sys.clear_cache();
        let now = sys.run(&q6(), RunOptions::default()).unwrap();
        assert_eq!(now.result.agg_values, old.agg_values);
        assert_eq!(now.route, Route::Device);
    }

    #[test]
    fn run_error_converts_from_component_errors() {
        let e = RunError::from(PlanError::UnknownTable("missing".into()));
        assert!(matches!(e.kind(), RunErrorKind::Plan(_)));
        assert!(!e.fault_counters().any());
    }
}
