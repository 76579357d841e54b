//! The assembled test bed: one host, its storage — a disk, an SSD, or 1..N
//! Smart SSDs behind one link — a catalog per device, and the machinery to
//! run a query on either side and meter it.

use crate::breaker::{BreakerState, BreakerTransition};
use crate::builder::{RoutePolicy, RunOptions};
use crate::config::{DeviceKind, SystemConfig};
use crate::shard::{host_pass, Shard};
use crate::workload::{AttemptRules, InterfaceMode};
use smartssd_device::DeviceError;
use smartssd_exec::QueryOp;
use smartssd_flash::FlashSsd;
use smartssd_host::{io::IoError, BufferPool, HddHostPath, HddModel, PageSource, SsdHostPath};
use smartssd_query::{
    choose_route_traced, plan::PlanError, Catalog, EngineError, PlannerConfig, PlannerInputs,
    Query, QueryResult, RawRun, Route, SessionFault,
};
use smartssd_sim::energy::{ComponentDraw, Subsystem};
use smartssd_sim::trace::pid;
use smartssd_sim::{
    mb_per_sec, Bus, CpuModel, EnergyBreakdown, FaultCounters, Interval, PowerModel, RunTrace,
    SimTime, TraceLevel, Tracer, UtilizationReport,
};
use smartssd_storage::{Layout, RowError, Schema, TableBuilder, TableImage, Tuple};
use std::fmt;
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
    /// fallbacks, and wasted simulated time. All zero on a clean run.
    pub faults: FaultCounters,
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

    /// Consumes the error, returning the failure kind.
    pub fn into_kind(self) -> RunErrorKind {
        self.kind
    }

    /// Faults absorbed before the failure: ECC events, re-reads, `GET`
    /// retries, and the simulated time wasted on abandoned attempts.
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

/// Breaker transitions of a run, each tagged with its device's index.
pub(crate) type Transitions = Vec<(usize, BreakerTransition)>;

#[allow(clippy::large_enum_variant)] // one backend exists per System; no dense collections of these
pub(crate) enum Backend {
    Hdd(HddHostPath),
    Ssd(SsdHostPath),
    /// The paper's Section 4.3 array: 1..N Smart SSDs behind one shared
    /// host link. A single-device system is the array with one member.
    Smart {
        shards: Vec<Shard>,
        link: Bus,
    },
}

impl Backend {
    /// The Smart SSDs (none on a disk or a plain SSD).
    pub(crate) fn shards(&self) -> &[Shard] {
        match self {
            Backend::Smart { shards, .. } => shards,
            _ => &[],
        }
    }

    /// The Smart SSDs, mutably.
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        match self {
            Backend::Smart { shards, .. } => shards,
            _ => &mut [],
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
    /// Assembles the system — with `n` Smart SSDs if that is the device
    /// kind — and threads the tracer through the link, the host CPU and the
    /// disk, SSD or every Smart SSD.
    pub(crate) fn assemble(cfg: SystemConfig, tracer: Tracer, n: usize) -> Self {
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
            DeviceKind::Ssd => {
                let flash = FlashSsd::new(cfg.flash.clone());
                let mut path = SsdHostPath::new(flash, cfg.interface, cfg.bufferpool_pages);
                path.set_tracer(tracer.clone());
                Backend::Ssd(path)
            }
            DeviceKind::SmartSsd => {
                let mut shards: Vec<Shard> = (0..n).map(|d| Shard::new(&cfg, d)).collect();
                for shard in &mut shards {
                    shard.dev.set_tracer(tracer.clone());
                }
                Backend::Smart { shards, link }
            }
        };
        Self {
            catalogs: vec![Catalog::new(); backend.shards().len().max(1)],
            backend,
            host_cpu,
            next_lba: 0,
            dirty: std::collections::HashSet::new(),
            run_faults: FaultCounters::default(),
            tracer,
            breaker_clock: SimTime::ZERO,
            cfg,
        }
    }

    /// The circuit breaker's current routing state (always `Closed` on
    /// non-smart systems, which have no device route to gate).
    pub fn breaker_state(&self) -> BreakerState {
        let first = self.backend.shards().first();
        first.map_or(BreakerState::Closed, |s| s.breaker.state())
    }

    /// System configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The table catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalogs[0]
    }

    /// Loads a prebuilt table image onto the device and registers it.
    pub fn load_table(&mut self, name: &str, img: &TableImage) -> Result<(), RunError> {
        self.load_image(0, name, img, self.next_lba)
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
        let tref = smartssd_exec::TableRef {
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
            Backend::Ssd(path) => {
                for (i, page) in img.pages().iter().enumerate() {
                    path.ssd
                        .write(first_lba + i as u64, page.raw().clone(), SimTime::ZERO)
                        .map_err(|e| RunError::from(IoError::Flash(e)))?;
                }
            }
            Backend::Smart { shards, .. } => {
                shards[d].dev.load_table(img, first_lba)?;
            }
        }
        self.next_lba = self.next_lba.max(first_lba + tref.num_pages);
        self.catalogs[d].register(name, tref);
        Ok(())
    }

    /// Builds a table in the system's configured layout from a row stream
    /// and loads it. A row that does not match `schema` is a
    /// [`RunErrorKind::Row`] naming it, and the system is left untouched:
    /// the whole image is built before any page is written.
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
        let img = b.finish();
        self.load_table(name, &img)
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
        match &mut self.backend {
            Backend::Hdd(p) => p.reset_timing(),
            Backend::Ssd(p) => p.reset_timing(),
            Backend::Smart { shards, link } => {
                shards.iter_mut().for_each(Shard::reset_timing);
                link.reset();
            }
        }
    }

    /// Empties the buffer pool (cold-run protocol).
    pub fn clear_cache(&mut self) {
        match &mut self.backend {
            Backend::Hdd(p) => p.pool.clear(),
            Backend::Ssd(p) => p.pool.clear(),
            Backend::Smart { shards, .. } => shards.iter_mut().for_each(|s| s.pool.clear()),
        }
    }

    /// The host buffer pool, whatever device backs the system (the first
    /// device's, should there be several).
    pub(crate) fn pool(&self) -> &BufferPool {
        match &self.backend {
            Backend::Hdd(p) => &p.pool,
            Backend::Ssd(p) => &p.pool,
            Backend::Smart { shards, .. } => &shards[0].pool,
        }
    }

    /// Pre-reads the first `fraction` of a table into the buffer pool (the
    /// Discussion-section cache experiments). Timing of the warm-up is
    /// discarded.
    pub fn warm_cache(&mut self, table: &str, fraction: f64) -> Result<(), RunError> {
        let tref = self
            .catalog()
            .get(table)
            .cloned()
            .ok_or_else(|| RunError::from(PlanError::UnknownTable(table.into())))?;
        let n = (tref.num_pages as f64 * fraction.clamp(0.0, 1.0)) as u64;
        for lba in tref.first_lba..tref.first_lba + n {
            match &mut self.backend {
                Backend::Hdd(p) => {
                    p.read_page(lba, SimTime::ZERO)?;
                }
                Backend::Ssd(p) => {
                    p.read_page(lba, SimTime::ZERO)?;
                }
                Backend::Smart { shards, link } => {
                    shards[0]
                        .host_view(link, self.cfg.interface.command_latency_ns())
                        .read_page(lba, SimTime::ZERO)?;
                }
            }
        }
        self.reset_run_timing();
        Ok(())
    }

    /// Fraction of a table currently resident in the buffer pool.
    pub fn residency(&self, table: &str) -> f64 {
        self.catalog()
            .get(table)
            .map_or(0.0, |tref| self.residency_of(tref))
    }

    /// Replaces a table's contents with a new row set: the new image is
    /// written to a fresh extent, the catalog re-points, and the old extent
    /// is trimmed (on flash, the stale pages become GC fodder). Timing of
    /// the rewrite is charged to the device and then reset, mirroring an
    /// untimed maintenance window. A row that does not match the table's
    /// schema is a [`RunErrorKind::Row`]; the catalog, the device, the buffer
    /// pool and the dirty set are then as they were.
    pub fn update_table_rows<I>(&mut self, name: &str, rows: I) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let old = self
            .catalog()
            .get(name)
            .cloned()
            .ok_or_else(|| RunError::from(PlanError::UnknownTable(name.into())))?;
        let schema = old.schema.clone();
        self.load_table_rows(name, &schema, rows)?;
        // Invalidate the old extent.
        if let Some(flash) = self.flash_mut() {
            for lba in old.first_lba..old.first_lba + old.num_pages {
                flash
                    .trim(lba)
                    .map_err(|e| RunError::from(IoError::Flash(e)))?;
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

    /// Checkpoints a table: charges the write-back of its pages to the
    /// device and clears the dirty flag, making pushdown legal again.
    pub fn checkpoint(&mut self, table: &str) -> Result<(), RunError> {
        if !self.dirty.remove(table) {
            return Ok(());
        }
        let tref = self
            .catalog()
            .get(table)
            .cloned()
            .ok_or_else(|| RunError::from(PlanError::UnknownTable(table.into())))?;
        // Re-write the extent through the device's write path (the data is
        // unchanged in this model; the cost is what matters).
        let lbas = tref.first_lba..tref.first_lba + tref.num_pages;
        if let Backend::Hdd(path) = &mut self.backend {
            for lba in lbas {
                if let Some((data, _)) = path.hdd.read(lba, SimTime::ZERO) {
                    path.hdd.write(lba, data, SimTime::ZERO);
                }
            }
        } else if let Some(flash) = self.flash_mut() {
            for lba in lbas {
                let (data, _) = flash
                    .read(lba, SimTime::ZERO)
                    .map_err(|e| RunError::from(IoError::Flash(e)))?;
                flash
                    .write(lba, data, SimTime::ZERO)
                    .map_err(|e| RunError::from(IoError::Flash(e)))?;
            }
        }
        self.reset_run_timing();
        Ok(())
    }

    /// The flash device behind an SSD or Smart SSD system.
    fn flash_mut(&mut self) -> Option<&mut FlashSsd> {
        match &mut self.backend {
            Backend::Hdd(_) => None,
            Backend::Ssd(path) => Some(&mut path.ssd),
            Backend::Smart { shards, .. } => Some(&mut shards[0].dev.flash),
        }
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
        let extent = |t: &smartssd_exec::TableRef| (t.first_lba, t.num_pages);
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
        let (done, _, trace) = self
            .run_single(query, opts, AttemptRules::of(InterfaceMode::Linked))
            .map_err(|e| self.with_faults(e))?;
        Ok(self.finish_report(query, done.route, done.result, trace))
    }

    /// Attaches the fault counters accumulated so far to a run's error.
    pub(crate) fn with_faults(&self, mut e: RunError) -> RunError {
        e.faults.absorb(&self.current_faults());
        e
    }

    /// Resolves the route a policy picks for an operator, applying the
    /// dirty-data correctness rule: a dirty input means the on-device copy
    /// is stale, so the device route is not available (Section 4.3) —
    /// before any cost consideration.
    pub(crate) fn resolve_route(&self, op: &QueryOp, policy: &RoutePolicy) -> Route {
        let requested = match policy {
            RoutePolicy::Natural => match self.cfg.device {
                DeviceKind::SmartSsd => Route::Device,
                _ => Route::Host,
            },
            RoutePolicy::Force(r) => *r,
            RoutePolicy::Planned(p) => self.plan_route(op, &p.planner, &p.inputs),
        };
        if requested == Route::Device && self.op_touches_dirty(op) {
            Route::Host
        } else {
            requested
        }
    }

    /// Planner-decided routing (Smart SSD systems only consult the
    /// planner; others always use the host). Residency comes from the
    /// actual buffer pool, not the caller.
    fn plan_route(&self, op: &QueryOp, planner: &PlannerConfig, inputs: &PlannerInputs) -> Route {
        if self.cfg.device != DeviceKind::SmartSsd {
            return Route::Host;
        }
        let mut inputs = inputs.clone();
        inputs.residency = match op {
            QueryOp::Scan { table, .. }
            | QueryOp::ScanAgg { table, .. }
            | QueryOp::GroupAgg { table, .. } => self.residency_of(table),
            QueryOp::Join { probe, .. } => self.residency_of(probe),
        };
        let (route, _est) = choose_route_traced(op, planner, &inputs, &self.tracer);
        route
    }

    /// Closes a run of length `end`: emits its single top-level span on the
    /// RUN track (so the trace's root covers exactly the run), advances the
    /// breakers' monotone clock past it, and pulls every device's breaker
    /// transitions (re-based onto the run's timeline, tagged with the
    /// device index) into the trace and the report.
    pub(crate) fn end_run(
        &mut self,
        name: &str,
        end: SimTime,
        args: &[(&str, f64)],
    ) -> (Transitions, RunTrace) {
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

    fn residency_of(&self, tref: &smartssd_exec::TableRef) -> f64 {
        self.pool().residency(tref.first_lba, tref.num_pages)
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
            Backend::Hdd(path) => host_pass(path, cpu, cfg, tracer, op, now),
            Backend::Ssd(path) => host_pass(path, cpu, cfg, tracer, op, now),
            Backend::Smart { shards, link } => {
                let mut view = shards[d].host_view(link, cfg.interface.command_latency_ns());
                host_pass(&mut view, cpu, cfg, tracer, op, now)
            }
        }
    }

    /// Fault counters as of right now: what the run banked plus every
    /// device's live view.
    pub(crate) fn current_faults(&self) -> FaultCounters {
        let mut faults = self.run_faults;
        if let Backend::Ssd(p) = &self.backend {
            faults.absorb(&p.fault_counters());
        }
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
        let (device_busy, link_busy, device_cpu) = match &self.backend {
            Backend::Hdd(p) => (p.device_busy_ns(), 0, None),
            Backend::Ssd(p) => (p.device_busy_ns(), p.link_busy_ns(), None),
            // Energy and utilization are metered for the paper's one-device
            // test bed.
            Backend::Smart { shards, link } => (
                shards[0].dev.flash.dram_busy_ns(),
                link.busy_total_ns(),
                Some(shards[0].dev.cpu()),
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
        util.record("host-cpu-thread", host_busy, 1);
        util.record("io-device", device_busy, 1);
        if link_busy > 0 {
            util.record("host-interface", link_busy, 1);
        }
        if let Some(cpu) = device_cpu {
            util.record("device-cpu", cpu.busy_total_ns(), cpu.cores());
        }
        let faults = self.current_faults();
        RunReport {
            query: Arc::clone(&query.name),
            device: self.cfg.device,
            layout: self.cfg.layout,
            route,
            result,
            energy,
            util,
            faults,
            trace,
        }
    }
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
        let writes = sys.flash_mut().unwrap().stats().writes;
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
            assert_eq!(sys.flash_mut().unwrap().stats().writes, writes);
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
