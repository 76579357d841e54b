//! A fleet of Smart SSDs coordinated by the host — the paper's parallel-DBMS
//! sketch (Section 4.3) built on every fault-tolerance layer the test bed
//! has grown since the single-device protocol.
//!
//! The Discussion section imagines "the host machine ... simply be\[ing\] the
//! coordinator that stages computation across an array of Smart SSDs, making
//! the system look like a parallel DBMS with the master node being the host
//! server, and the worker nodes ... being the Smart SSDs." This module is
//! that coordinator. Each member is the same per-device `Shard` a
//! single-device [`System`](crate::System) is built on, so the host block
//! path, the breaker bookkeeping and the fallback rule exist once:
//!
//! - **Sharding.** A table is horizontally partitioned round-robin across N
//!   devices; each device holds its own partition image and catalog entry
//!   under the shared table name.
//! - **Scatter.** Each query fans out as one pushdown session per shard,
//!   driven by [`SessionDriver`] under the configured
//!   [`SessionPolicy`](smartssd_query::SessionPolicy)
//!   (bounded `GET` retries, exponential backoff, session timeout). In
//!   [`InterfaceMode::Linked`] the `OPEN` payloads serialize over the shared
//!   host link, exactly like single-device device-routed runs; in
//!   [`InterfaceMode::Direct`] sessions open in place at time zero (the
//!   `repro array` experiment's shape).
//! - **Gather.** Aggregate partials return over the shared link (the bus
//!   serializes them) and merge on the host; finalization happens once, on
//!   the merged states, so non-distributive aggregates like AVG stay exact.
//! - **Failure awareness.** Every device carries its own
//!   [`CircuitBreaker`](crate::CircuitBreaker) and is its own crash domain:
//!   a recoverable session fault (uncorrectable flash, firmware crash, hang,
//!   timeout) degrades *that shard only* to the host block path — a
//!   separate failure domain that survives firmware crashes — while the
//!   other N−1 shards proceed on the device route. One dead device out of
//!   16 costs roughly one shard of throughput, not an outage.
//! - **Hedged reads.** Optionally, every live shard whose completion
//!   estimate lags the fleet median is raced by a host block-path re-run,
//!   under a fleet-wide retry budget; whichever copy finishes first supplies
//!   the partial. Hedging never changes answers, only timing (both compute
//!   the same partial over the same rows).
//!
//! Device executions are embarrassingly parallel: each [`SmartSsd`] owns
//! private timelines, so the fleet runs the open/execute phase through
//! `exec::par`'s chunked fork/join — at most `default_workers()` real
//! threads a query, none on a one-CPU host — with bit-identical simulated
//! results. A panic in a device's open is caught and surfaced as
//! [`RunErrorKind::DeviceThread`] instead of aborting the process.

use crate::breaker::BreakerTransition;
use crate::builder::SystemBuilder;
use crate::config::SystemConfig;
use crate::shard::{host_pass, host_side, Fallen, Shard};
use crate::system::{RunError, RunErrorKind};
use crate::workload::{Acct, ArrivalOutcome, InterfaceMode, QueryCompletion};
use smartssd_device::{SessionId, SmartSsd};
use smartssd_exec::{default_workers, encode_op, parallel_try_each_mut, QueryOp, WorkCounts};
use smartssd_query::{Catalog, Query, QueryResult, RawRun, Route, SessionDriver, SessionFault};
use smartssd_sim::trace::pid;
use smartssd_sim::{
    Bus, CpuModel, FaultCounters, Interval, LatencyStats, RunTrace, SimTime, TraceLevel, Tracer,
};
use smartssd_storage::expr::AggState;
use smartssd_storage::{Schema, TableBuilder, Tuple};
use std::sync::Arc;

/// Coordinator knobs for a [`SmartSsdFleet`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// How sessions reach the devices. [`InterfaceMode::Linked`] (the
    /// default) marshals every `OPEN` over the shared host link before the
    /// device starts executing — the full protocol. [`InterfaceMode::Direct`]
    /// opens sessions in place at time zero; results crossing the link on
    /// gather are charged identically in both modes.
    pub interface: InterfaceMode,
    /// Hedged shard reads: every live shard whose device-side completion
    /// estimate exceeds `hedge_factor` times the *median* estimate is raced
    /// by a host block-path re-run, guarded by the retry budget — the shape
    /// a gray fleet needs, where several shards may limp at once. Hedging
    /// never changes answers — both copies compute the same partial — only
    /// timing. Off by default (a hedge burns real link and host-CPU time).
    pub hedge: bool,
    /// Hedge trigger: a shard is hedged when its completion estimate
    /// exceeds `hedge_factor` times the median estimate across live
    /// shards. `0.0` hedges every live shard the budget allows.
    pub hedge_factor: f64,
    /// Retry budget: at most this many hedges are launched per query run.
    /// The budget is fleet-wide, so a gray fleet cannot amplify itself into
    /// a retry storm — once it is spent, further laggards are simply
    /// gathered.
    pub hedge_budget: u32,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            interface: InterfaceMode::Linked,
            hedge: false,
            hedge_factor: 1.5,
            hedge_budget: 2,
        }
    }
}

/// How one shard of one query run went.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Device index.
    pub device: usize,
    /// Where this shard's partial was ultimately computed.
    pub route: Route,
    /// Simulated time the host finished consuming this shard's partial.
    pub finished_at: SimTime,
    /// A recoverable session fault degraded this shard to the host path.
    pub fell_back: bool,
    /// A hedged host re-run raced this shard's device session.
    pub hedged: bool,
    /// The hedged host re-run supplied the shard's partial: it finished
    /// first, or the device session died with the hedge already running
    /// (a pre-launched recovery).
    pub hedge_won: bool,
}

/// Everything one fleet query run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The merged query result; `elapsed` is the coordinator's completion
    /// time (slowest shard + gather).
    pub result: QueryResult,
    /// Per-shard routes, finish times, and recovery actions.
    pub shards: Vec<ShardOutcome>,
    /// Faults absorbed across every device and every host-side read path.
    pub faults: FaultCounters,
    /// Per-device breaker transitions, re-based onto this run's timeline.
    pub breaker_transitions: Vec<(usize, BreakerTransition)>,
    /// The run's trace, if a sink was attached.
    pub trace: RunTrace,
}

/// Summary of a closed-loop query stream on the fleet (queries run
/// back-to-back; breaker state persists across queries on the fleet's
/// monotone breaker clock; host-side caches are cleared before each query —
/// the cold-run protocol every reproduced figure uses).
#[derive(Debug, Clone)]
pub struct FleetStreamReport {
    /// One terminal [`ArrivalOutcome`] per stream query, in submission
    /// order — the same exhaustive outcome type
    /// [`WorkloadReport`](crate::WorkloadReport) uses, recorded through the
    /// same accounting, so fleet streams and single-device workloads share
    /// one vocabulary. In a closed-loop stream each query "arrives" when
    /// its predecessor finishes; a query that dies on an unrecoverable
    /// error is recorded as [`ArrivalOutcome::Failed`] and ends the stream
    /// (the partial report is still returned).
    pub outcomes: Vec<ArrivalOutcome>,
    /// Queries that failed on an unrecoverable error (0 or 1: a failure
    /// ends the stream).
    pub failed: u64,
    /// Queries completed.
    pub queries: usize,
    /// Sum of per-query completion times (closed-loop makespan).
    pub makespan: SimTime,
    /// Completed queries per simulated second.
    pub throughput_qps: f64,
    /// Per-query latency summary.
    pub latency: LatencyStats,
    /// Faults absorbed across the whole stream.
    pub faults: FaultCounters,
    /// Shard runs that ended on the host route (breaker quarantine or
    /// per-shard fallback).
    pub host_shard_runs: u64,
    /// Shards that degraded mid-run after a recoverable session fault.
    pub fallbacks: u64,
}

/// Per-shard state between the scatter and gather phases.
#[derive(Clone, Copy)]
enum ShardPhase {
    /// A live device session (id, `OPEN` completion time).
    Session(SessionId, SimTime),
    /// Host block-path execution starting no earlier than `from`;
    /// `fell_back` distinguishes a mid-run degrade from a breaker decision.
    Host { from: SimTime, fell_back: bool },
}

/// One query's scatter/gather state: the protocol driver, the breaker
/// stamp, the still-open sessions (so every error path can close them),
/// and the merge in progress.
struct Gather {
    driver: SessionDriver,
    /// The breaker clock at the start of the run; every sample of the run
    /// is stamped with it.
    base: SimTime,
    /// Hedges the run's retry budget still allows.
    hedges_left: u32,
    sids: Vec<Option<SessionId>>,
    merged: Option<Vec<AggState>>,
    work: WorkCounts,
    outcomes: Vec<ShardOutcome>,
    /// The gather frontier: the host has consumed every earlier shard's
    /// partial by this instant.
    t: SimTime,
}

impl Gather {
    /// Folds a host block-path pass into the merge as shard `d`'s partial.
    fn take_host(&mut self, d: usize, raw: RawRun) {
        AggState::merge_partials(&mut self.merged, raw.aggs);
        self.work.absorb(&raw.work);
        self.outcomes[d].route = Route::Host;
        self.outcomes[d].finished_at = raw.end;
    }
}

/// A host coordinating N Smart SSDs as one parallel query engine.
pub struct SmartSsdFleet {
    cfg: SystemConfig,
    opts: FleetOptions,
    shards: Vec<Shard>,
    /// Each device's partition catalog, by device index.
    catalogs: Vec<Catalog>,
    link: Bus,
    host_cpu: CpuModel,
    next_lba: u64,
    tracer: Tracer,
    run_faults: FaultCounters,
    /// Monotone clock the per-device breakers live on; accumulates run
    /// lengths so breaker state carries across runs that each start at zero.
    breaker_clock: SimTime,
}

impl SmartSsdFleet {
    /// Builds a fleet of `n` identical devices with default coordinator
    /// options.
    ///
    /// # Panics
    ///
    /// Like [`SystemBuilder::build_fleet`], on an invalid configuration or
    /// `n == 0`.
    pub fn new(n: usize, cfg: SystemConfig) -> Self {
        Self::with_options(n, cfg, FleetOptions::default())
    }

    /// Builds a fleet of `n` identical devices.
    ///
    /// # Panics
    ///
    /// Like [`SystemBuilder::build_fleet`], on an invalid configuration or
    /// `n == 0`.
    pub fn with_options(n: usize, cfg: SystemConfig, opts: FleetOptions) -> Self {
        SystemBuilder::from_config(cfg).build_fleet(n, opts)
    }

    /// Assembles a fleet from a configuration
    /// [`SystemBuilder::try_build_fleet`] has validated.
    pub(crate) fn assemble(
        n: usize,
        cfg: SystemConfig,
        opts: FleetOptions,
        tracer: Tracer,
    ) -> Self {
        let (link, host_cpu) = host_side(&cfg, &tracer);
        Self {
            shards: (0..n).map(|_| Shard::new(&cfg)).collect(),
            catalogs: vec![Catalog::new(); n],
            cfg,
            opts,
            link,
            host_cpu,
            next_lba: 0,
            tracer,
            run_faults: FaultCounters::default(),
            breaker_clock: SimTime::ZERO,
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The coordinator options.
    pub fn options(&self) -> &FleetOptions {
        &self.opts
    }

    /// One device, by index (diagnostics: open-session counts, fault
    /// counters).
    pub fn device(&self, d: usize) -> &SmartSsd {
        &self.shards[d].dev
    }

    /// One device, mutably — the fault-injection hook experiments use to
    /// degrade a single fleet member (e.g. arm its crash rate).
    pub fn device_mut(&mut self, d: usize) -> &mut SmartSsd {
        &mut self.shards[d].dev
    }

    /// Arms a scripted gray-failure plan across the fleet: each device
    /// gets its own per-device view, split between its flash path
    /// (slowdown windows, ECC bursts) and its smart runtime (crash
    /// instants, CPU slowdowns). An empty plan disarms. Scenarios replay
    /// bit-exactly — the plan carries no randomness at all.
    pub fn arm_fault_plan(&mut self, plan: &smartssd_sim::FaultPlan) {
        for (d, shard) in self.shards.iter_mut().enumerate() {
            let view = plan.for_device(d);
            shard.dev.flash.arm_fault_plan(view.clone());
            shard.dev.config_mut().fault_plan = view;
        }
    }

    /// Device `d`'s breaker state.
    pub fn breaker_state(&self, d: usize) -> crate::breaker::BreakerState {
        self.shards[d].breaker.state()
    }

    /// Loads a table partitioned round-robin across the devices; each
    /// device registers its own partition under the shared name.
    pub fn load_partitioned<I>(
        &mut self,
        name: &str,
        schema: &Arc<Schema>,
        rows: I,
    ) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let n = self.shards.len();
        // Buffer each partition's rows, then build its pages in one pass
        // (TableBuilder seals a page per `extend` call boundary).
        let mut partitions: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        for (i, row) in rows.into_iter().enumerate() {
            partitions[i % n].push(row);
        }
        let first_lba = self.next_lba;
        let mut max_pages = 0;
        for (d, part) in partitions.into_iter().enumerate() {
            let mut b = TableBuilder::new(name, Arc::clone(schema), self.cfg.layout);
            b.extend(part);
            let img = b.finish();
            max_pages = max_pages.max(img.num_pages() as u64);
            let tref = self.shards[d]
                .dev
                .load_table(&img, first_lba)
                .map_err(RunError::from)?;
            self.catalogs[d].register(name, tref);
        }
        self.next_lba = first_lba + max_pages;
        Ok(())
    }

    /// Ends the load phase: discards load-time timing on every device, the
    /// link, and the host CPU.
    pub fn finish_load(&mut self) {
        self.reset_run_timing();
    }

    /// Empties every shard's host-side buffer pool (cold-run protocol).
    pub fn clear_host_cache(&mut self) {
        for shard in &mut self.shards {
            shard.pool.clear();
        }
    }

    /// Resets per-run timing state: device timelines, the shared link, the
    /// host CPU, command batching, and host-side fault counters. Breaker
    /// state and buffer pools persist (like [`System`](crate::System) runs).
    fn reset_run_timing(&mut self) {
        self.host_cpu.reset();
        self.link.reset();
        for shard in &mut self.shards {
            shard.reset_timing();
        }
    }

    /// Faults accumulated so far in the current run, across every device
    /// and host-side read path.
    fn collected_faults(&self) -> FaultCounters {
        let mut f = self.run_faults;
        for shard in &self.shards {
            f.absorb(&shard.faults());
        }
        f
    }

    /// Wraps an error for return: best-effort CLOSE of every still-open
    /// session — so a failed scatter/gather never leaks sessions on
    /// not-yet-gathered devices — and the faults accumulated up to the
    /// failure attached.
    fn fail(&mut self, sids: &mut [Option<SessionId>], mut err: RunError) -> RunError {
        for (d, slot) in sids.iter_mut().enumerate() {
            if let Some(sid) = slot.take() {
                let _ = self.shards[d].dev.close(sid);
            }
        }
        err.faults = Box::new(self.collected_faults());
        err
    }

    /// Runs shard `d`'s operator on the host block path (the per-device
    /// read state + the shared link), returning the raw pass so the
    /// caller can merge its aggregate states with other shards' partials.
    fn host_shard(&mut self, d: usize, op: &QueryOp, now: SimTime) -> Result<RawRun, RunError> {
        let cmd_latency = self.cfg.interface.command_latency_ns();
        let mut view = self.shards[d].host_view(&mut self.link, cmd_latency);
        host_pass(
            &mut view,
            &mut self.host_cpu,
            &self.cfg,
            &self.tracer,
            op,
            now,
        )
    }

    /// Emits one protocol span on shard `d`'s fleet lane.
    fn shard_span(&self, d: usize, name: &str, iv: Interval, args: &[(&str, f64)]) {
        self.tracer.span(
            TraceLevel::Protocol,
            pid::FLEET,
            d as u32,
            name,
            "fleet",
            iv,
            args,
        );
    }

    /// Emits one protocol instant on shard `d`'s fleet lane.
    fn shard_instant(&self, d: usize, name: &str, at: SimTime) {
        self.tracer.instant(
            TraceLevel::Protocol,
            pid::FLEET,
            d as u32,
            name,
            "fleet",
            at,
            &[],
        );
    }

    /// Runs an aggregation query across every shard and merges the partials
    /// on the host. Per-run timing starts at zero (timing state is reset;
    /// breaker state persists on the fleet's monotone clock).
    pub fn run_agg(&mut self, query: &Query) -> Result<FleetReport, RunError> {
        let n = self.shards.len();
        // Resolve per shard (each has its own partition extent).
        let ops: Vec<QueryOp> = self
            .catalogs
            .iter()
            .map(|c| query.resolve(c))
            .collect::<Result<_, _>>()?;
        self.reset_run_timing();
        self.run_faults = FaultCounters::default();
        self.tracer.set_level(TraceLevel::Full);
        self.tracer.begin_run();
        let mut g = Gather {
            driver: SessionDriver::new(self.cfg.session_policy.clone())
                .with_tracer(self.tracer.clone()),
            base: self.breaker_clock,
            hedges_left: self.opts.hedge_budget,
            sids: vec![None; n],
            merged: None,
            work: WorkCounts::default(),
            outcomes: (0..n)
                .map(|d| ShardOutcome {
                    device: d,
                    route: Route::Device,
                    finished_at: SimTime::ZERO,
                    fell_back: false,
                    hedged: false,
                    hedge_won: false,
                })
                .collect(),
            t: SimTime::ZERO,
        };
        if let Err(e) = self.scatter_gather(&ops, &mut g) {
            return Err(self.fail(&mut g.sids, e));
        }

        // The frontier has passed every shard's finish.
        let elapsed = g.t;
        let (agg_values, scalar) = query.finalize.apply(g.merged.as_deref().unwrap_or(&[]));
        self.tracer.span(
            TraceLevel::Protocol,
            pid::RUN,
            0,
            "run",
            "run",
            Interval {
                start: SimTime::ZERO,
                end: elapsed,
            },
            &[],
        );
        let mut breaker_transitions = Vec::new();
        for (d, shard) in self.shards.iter_mut().enumerate() {
            let lane = (pid::FLEET, d as u32);
            let drained = shard.take_breaker_transitions(g.base, &self.tracer, lane, "fleet");
            breaker_transitions.extend(drained.into_iter().map(|tr| (d, tr)));
        }
        self.breaker_clock = g.base + elapsed;
        let trace = self.tracer.finish_run();
        Ok(FleetReport {
            result: QueryResult {
                rows: Vec::new(),
                agg_values,
                scalar,
                elapsed,
                work: g.work,
            },
            shards: g.outcomes,
            faults: self.collected_faults(),
            breaker_transitions,
            trace,
        })
    }

    /// Scatters the query, then gathers every shard's partial in device
    /// order. On error the caller closes whatever is still in `g.sids`.
    fn scatter_gather(&mut self, ops: &[QueryOp], g: &mut Gather) -> Result<(), RunError> {
        let phases = self.scatter(ops, g)?;
        let marked = self.mark_hedges(&phases);
        for (d, op) in ops.iter().enumerate() {
            self.gather_shard(g, d, op, phases[d], marked[d])?;
        }
        Ok(())
    }

    /// Scatter: routes every shard (a device whose breaker is Open goes
    /// straight to the host block path, with no device traffic at all),
    /// ships the `OPEN`s, and starts the device executions. Live sessions
    /// are parked in `g.sids`.
    fn scatter(&mut self, ops: &[QueryOp], g: &mut Gather) -> Result<Vec<ShardPhase>, RunError> {
        let n = self.shards.len();
        let cmd_latency = self.cfg.interface.command_latency_ns();
        let device_routed: Vec<bool> = self
            .shards
            .iter_mut()
            .map(|s| s.breaker.allows_device(g.base))
            .collect();

        // Part 1: in linked mode every OPEN payload crosses the shared
        // link first; the bus serializes the command transfers.
        let mut open_at = vec![SimTime::ZERO; n];
        let mut payloads: Vec<Option<Vec<u8>>> = vec![None; n];
        if self.opts.interface == InterfaceMode::Linked {
            for d in (0..n).filter(|&d| device_routed[d]) {
                let payload = encode_op(&ops[d]);
                let iv =
                    self.link
                        .transfer_with_setup(SimTime::ZERO, payload.len() as u64, cmd_latency);
                let bytes = payload.len() as f64;
                self.shard_span(d, "shard-open", iv, &[("payload_bytes", bytes)]);
                open_at[d] = iv.end;
                payloads[d] = Some(payload);
            }
        }

        // Part 2: all devices unmarshal and execute their partitions
        // concurrently, chunked over at most `default_workers()` threads
        // (inline when that is one). Each device's simulation is private,
        // so real threads are safe and the outcome is deterministic. A panic
        // in one device's open is caught and surfaced as a typed error.
        let mut jobs: Vec<(usize, &mut Shard)> = self
            .shards
            .iter_mut()
            .enumerate()
            .filter(|(d, _)| device_routed[*d])
            .collect();
        let mut results = parallel_try_each_mut(&mut jobs, default_workers(), |(d, shard)| {
            match payloads[*d].as_deref() {
                Some(p) => shard.dev.open_raw(p, open_at[*d]),
                None => shard.dev.open(&ops[*d], open_at[*d]),
            }
        })
        .into_iter();
        // One result per device-routed shard, in device order.
        let opens: Vec<_> = device_routed
            .iter()
            .map(|&routed| if routed { results.next() } else { None })
            .collect();
        // Park every live session before judging any failed open, so an
        // aborting run closes them all.
        for (d, open) in opens.iter().enumerate() {
            if let Some(Ok(Ok(sid))) = open {
                g.sids[d] = Some(*sid);
            }
        }

        // Classify the opens: live sessions keep the device route; a
        // recoverable OPEN failure (crash, reset storm, resource rejection)
        // degrades that shard to the host path from the failure on;
        // malformed/invalid operators and worker panics abort the run.
        let mut phases = Vec::with_capacity(n);
        for (d, open) in opens.into_iter().enumerate() {
            phases.push(match open {
                None => ShardPhase::Host {
                    from: SimTime::ZERO,
                    fell_back: false,
                },
                Some(Err(message)) => {
                    return Err(RunErrorKind::DeviceThread { device: d, message }.into());
                }
                Some(Ok(Ok(sid))) => ShardPhase::Session(sid, open_at[d]),
                Some(Ok(Err(e))) => {
                    let fault = SessionFault {
                        wasted: open_at[d].max(SessionDriver::error_time(&e)),
                        error: SessionDriver::classify(e),
                        get_retries: 0,
                    };
                    let from = self.settle_shard_fault(g, d, fault)?;
                    ShardPhase::Host {
                        from,
                        fell_back: true,
                    }
                }
            });
        }
        Ok(phases)
    }

    /// Settles a faulted attempt on shard `d` (every shard is dispatched
    /// at the scatter, time zero): a recoverable fault degrades the shard
    /// to the host block path no earlier than the returned instant; an
    /// unrecoverable one is the run's error.
    fn settle_shard_fault(
        &mut self,
        g: &Gather,
        d: usize,
        fault: SessionFault,
    ) -> Result<SimTime, RunError> {
        let faults = &mut self.run_faults;
        let Fallen { at, dead } = self.shards[d].settle_fault(fault, g.base, SimTime::ZERO, faults);
        if let Some(fault) = dead {
            return Err(RunErrorKind::Session(fault).into());
        }
        self.shard_instant(d, "shard-fallback", at);
        Ok(at)
    }

    /// Hedge marking: ranks live shards by the device's own completion
    /// estimate (a non-destructive peek at the last queued batch); every
    /// shard whose estimate exceeds `hedge_factor` times the median is a
    /// laggard worth racing — this catches *several* limping shards at
    /// once, the shape a gray device's slowdown window produces.
    fn mark_hedges(&self, phases: &[ShardPhase]) -> Vec<bool> {
        let mut marked = vec![false; phases.len()];
        if !self.opts.hedge {
            return marked;
        }
        let etas: Vec<(usize, SimTime)> = phases
            .iter()
            .enumerate()
            .filter_map(|(d, phase)| match phase {
                ShardPhase::Session(sid, _) => Some((d, self.shards[d].dev.session_eta(*sid)?)),
                ShardPhase::Host { .. } => None,
            })
            .collect();
        if etas.len() >= 2 {
            let mut sorted: Vec<SimTime> = etas.iter().map(|&(_, eta)| eta).collect();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            let threshold = self.opts.hedge_factor * median.as_nanos() as f64;
            for &(d, eta) in &etas {
                marked[d] = eta.as_nanos() as f64 > threshold;
            }
        }
        marked
    }

    /// Launches a hedge for laggard shard `d` at the gather frontier — if
    /// the run's retry budget is not spent. The host copy is
    /// posted at the same instant as the shard's gather, racing the device
    /// session for the same partial; both sides' resource use is charged —
    /// that is the price of hedging. A denied hedge is counted: a fleet
    /// that wants to hedge but can't is a tuning signal, not a silent
    /// no-op.
    fn launch_hedge(&mut self, g: &mut Gather, d: usize, op: &QueryOp) -> Option<RawRun> {
        if g.hedges_left > 0 {
            g.hedges_left -= 1;
            self.run_faults.hedges += 1;
            g.outcomes[d].hedged = true;
            self.shard_instant(d, "shard-hedge", g.t);
            self.host_shard(d, op, g.t).ok()
        } else {
            self.run_faults.hedge_denied += 1;
            self.shard_instant(d, "shard-hedge-denied", g.t);
            None
        }
    }

    /// Gathers shard `d`'s partial at the gather frontier, from wherever
    /// its phase says it comes, and advances the frontier past it.
    fn gather_shard(
        &mut self,
        g: &mut Gather,
        d: usize,
        op: &QueryOp,
        phase: ShardPhase,
        marked: bool,
    ) -> Result<(), RunError> {
        let gather_start = g.t;
        match phase {
            ShardPhase::Host { from, fell_back } => {
                let raw = self.host_shard(d, op, from)?;
                g.take_host(d, raw);
                g.outcomes[d].fell_back = fell_back;
            }
            ShardPhase::Session(sid, open_done) => {
                let deadline = open_done + self.cfg.session_policy.session_timeout;
                let collected = g.driver.collect_linked(
                    &mut self.shards[d].dev,
                    &mut self.link,
                    &mut self.host_cpu,
                    sid,
                    g.t,
                    deadline,
                );
                let hedge = if marked {
                    self.launch_hedge(g, d, op)
                } else {
                    None
                };
                // Closed just below, or already by the driver on its fault path.
                g.sids[d] = None;
                match collected {
                    Ok(out) => {
                        let _ = g.driver.close(&mut self.shards[d].dev, sid, &out);
                        let faults = &mut self.run_faults;
                        self.shards[d].settle_done(&out, g.base, open_done, faults);
                        match hedge {
                            Some(raw) if raw.end < out.finished_at => {
                                // The host copy won the race; answers are
                                // identical, only timing moves.
                                self.run_faults.hedge_wins += 1;
                                g.outcomes[d].hedge_won = true;
                                g.take_host(d, raw);
                            }
                            _ => {
                                g.outcomes[d].finished_at = out.finished_at;
                                if let Some(parts) = out.aggs {
                                    AggState::merge_partials(&mut g.merged, parts);
                                }
                                g.work.absorb(self.shards[d].dev.total_work());
                            }
                        }
                    }
                    Err(fault) => {
                        let from = self.settle_shard_fault(g, d, fault)?;
                        g.outcomes[d].fell_back = true;
                        // A hedge already in flight doubles as the recovery
                        // run — it won by default: the recovery was running
                        // when the fault hit. Otherwise fall back now, for
                        // this shard only, once the host has both seen the
                        // fault and reached this shard.
                        let raw = match hedge {
                            Some(raw) => {
                                self.run_faults.hedge_wins += 1;
                                g.outcomes[d].hedge_won = true;
                                raw
                            }
                            None => self.host_shard(d, op, from.max(g.t))?,
                        };
                        g.take_host(d, raw);
                    }
                }
            }
        }
        g.t = g.t.max(g.outcomes[d].finished_at);
        let iv = Interval {
            start: gather_start,
            end: g.outcomes[d].finished_at.max(gather_start),
        };
        self.shard_span(d, "shard-gather", iv, &[]);
        Ok(())
    }

    /// Runs `queries` back-to-back as a closed-loop stream: each query's
    /// timing starts at zero, breaker state carries across queries on the
    /// fleet's monotone clock, and host-side caches are cleared before each
    /// query (the cold-run protocol). Returns throughput and latency over
    /// the whole stream, plus one [`ArrivalOutcome`] per query on the
    /// stream's cumulative timeline (query `i` "arrives" when query `i-1`
    /// finishes). A query that dies on an unrecoverable error becomes an
    /// [`ArrivalOutcome::Failed`] outcome and ends the stream early; the
    /// report still covers everything that ran, so `Ok` is returned and
    /// the failure is visible in `outcomes`/`failed` rather than erasing
    /// the completed work.
    pub fn run_stream(&mut self, queries: &[Query]) -> Result<FleetStreamReport, RunError> {
        let mut acct = Acct::new(queries.len(), 0, Tracer::none());
        let mut faults = FaultCounters::default();
        let mut host_shard_runs = 0u64;
        let mut fallbacks = 0u64;
        for (i, q) in queries.iter().enumerate() {
            self.clear_host_cache();
            let arrival = acct.makespan;
            let r = match self.run_agg(q) {
                Ok(r) => r,
                Err(e) => {
                    faults.absorb(e.fault_counters());
                    acct.fail(i, 0, (&q.name, arrival), arrival, e);
                    break;
                }
            };
            faults.absorb(&r.faults);
            host_shard_runs += r.shards.iter().filter(|s| s.route == Route::Host).count() as u64;
            fallbacks += r.shards.iter().filter(|s| s.fell_back).count() as u64;
            let route = if r.shards.iter().all(|s| s.route == Route::Host) {
                Route::Host
            } else {
                Route::Device
            };
            let latency = r.result.elapsed;
            acct.complete(
                0,
                QueryCompletion {
                    index: i,
                    query: Arc::clone(&q.name),
                    route,
                    arrival,
                    finished_at: arrival + latency,
                    latency,
                    result: r.result,
                },
            );
        }
        let secs = acct.makespan.as_secs_f64();
        let throughput_qps = if secs > 0.0 {
            acct.total.completed as f64 / secs
        } else {
            0.0
        };
        Ok(FleetStreamReport {
            queries: acct.total.completed as usize,
            // A failure ends the stream early, leaving the tail unrecorded.
            outcomes: acct.outcomes.into_iter().flatten().collect(),
            failed: acct.total.failed,
            makespan: acct.makespan,
            throughput_qps,
            latency: LatencyStats::from_sample(&acct.total.latencies),
            faults,
            host_shard_runs,
            fallbacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceKind;
    use smartssd_exec::spec::ScanAggSpec;
    use smartssd_query::{Finalize, OpTemplate};
    use smartssd_sim::FaultPlan;
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout};

    const N_ROWS: i32 = 120_000;

    fn rows() -> Vec<Tuple> {
        (0..N_ROWS)
            .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)] as Tuple)
            .collect()
    }

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
    }

    fn count_query() -> Query {
        Query {
            name: "count".into(),
            op: OpTemplate::ScanAgg {
                table: "t".into(),
                spec: ScanAggSpec {
                    pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(i64::MAX)),
                    aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(1))],
                },
            },
            finalize: Finalize::AggRow,
        }
    }

    fn fleet(n: usize, opts: FleetOptions) -> SmartSsdFleet {
        fleet_with(
            n,
            opts,
            SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax),
        )
    }

    fn fleet_with(n: usize, opts: FleetOptions, cfg: SystemConfig) -> SmartSsdFleet {
        let mut fleet = SmartSsdFleet::with_options(n, cfg, opts);
        fleet.load_partitioned("t", &schema(), rows()).unwrap();
        fleet.finish_load();
        fleet
    }

    fn assert_answers(r: &FleetReport) {
        assert_eq!(r.result.agg_values[0], N_ROWS as i128);
        assert_eq!(r.result.agg_values[1], (0..N_ROWS as i128).sum::<i128>());
    }

    /// The whole-run window every scenario below uses: comfortably longer
    /// than any fleet run over this table.
    fn all_run() -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::from_secs(3600))
    }

    /// A config whose embedded CPU is so weak the device route is
    /// CPU-bound. A slowdown window then inflates the device session far
    /// past what the host block path pays (the hedge shares the gray
    /// shard's *flash* occupancy, but never its crippled CPU), giving the
    /// host copy a race it can win.
    fn weak_cpu_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax);
        cfg.smart.cpu_hz = 40_000_000;
        cfg
    }

    #[test]
    fn hedging_races_a_gray_shard_without_changing_answers() {
        let (from, until) = all_run();
        let plan = FaultPlan::new().slowdown(2, 8, from, until);

        // Gray device, hedging on: shard 2's estimate exceeds 1.5x the
        // median, so a host copy races it. The copy shares the gray
        // shard's flash timelines, so the healthy-but-slow session still
        // delivers first — the race is visible in the counters, and the
        // answer is untouched either way.
        let opts = FleetOptions {
            hedge: true,
            ..FleetOptions::default()
        };
        let mut hedged = fleet_with(4, opts, weak_cpu_cfg());
        hedged.arm_fault_plan(&plan);
        let hedged_r = hedged.run_agg(&count_query()).unwrap();
        assert_answers(&hedged_r);
        assert_eq!(hedged_r.faults.hedges, 1, "only the gray shard is raced");
        assert_eq!(hedged_r.faults.hedge_denied, 0);
        assert!(hedged_r.shards[2].hedged);
        assert!(
            hedged_r.shards.iter().filter(|s| s.hedged).count() == 1,
            "healthy shards are never hedged"
        );
    }

    #[test]
    fn hedge_doubles_as_prelaunched_recovery_when_the_session_dies() {
        // Shard 2 is gray (8x slowdown marks it for hedging) and then its
        // firmware crashes at the first gather-time poll. The hedge copy
        // is already running when the fault hits, so it supplies the
        // partial — a hedge win by default — and the answer is exact.
        let (from, until) = all_run();
        let plan = FaultPlan::new()
            .slowdown(2, 8, from, until)
            .crash_at(2, SimTime::from_millis(1));
        let opts = FleetOptions {
            hedge: true,
            ..FleetOptions::default()
        };
        let mut f = fleet_with(4, opts, weak_cpu_cfg());
        f.arm_fault_plan(&plan);
        let r = f.run_agg(&count_query()).unwrap();
        assert_answers(&r);
        assert_eq!(r.faults.hedges, 1);
        assert_eq!(r.faults.hedge_wins, 1);
        assert!(r.shards[2].hedged && r.shards[2].hedge_won);
        assert!(r.shards[2].fell_back, "the session fault is still booked");
        assert_eq!(r.shards[2].route, Route::Host);
        assert_eq!(r.faults.fallbacks, 1);
    }

    #[test]
    fn hedge_budget_bounds_the_race_count() {
        // hedge_factor 0 marks every live shard; a budget of 1 allows
        // exactly one race and counts every denial.
        let opts = FleetOptions {
            hedge: true,
            hedge_factor: 0.0,
            hedge_budget: 1,
            ..FleetOptions::default()
        };
        let mut f = fleet(4, opts);
        let r = f.run_agg(&count_query()).unwrap();
        assert_answers(&r);
        assert_eq!(r.faults.hedges, 1, "budget caps hedges fleet-wide");
        assert_eq!(r.faults.hedge_denied, 3);
        assert_eq!(r.shards.iter().filter(|s| s.hedged).count(), 1);
    }

    #[test]
    fn scripted_slowdown_slows_the_fleet_and_replays_bit_exact() {
        let (from, until) = all_run();
        let mut clean = fleet(4, FleetOptions::default());
        let clean_r = clean.run_agg(&count_query()).unwrap();
        assert_answers(&clean_r);

        let mut gray = fleet(4, FleetOptions::default());
        gray.arm_fault_plan(&FaultPlan::new().slowdown(1, 8, from, until));
        let first = gray.run_agg(&count_query()).unwrap();
        assert_answers(&first);
        assert!(
            first.result.elapsed > clean_r.result.elapsed,
            "an 8x gray device must slow the gather"
        );
        // Only device 1 is afflicted; the others finish on clean timing.
        assert!(first.shards[1].finished_at > clean_r.shards[1].finished_at);
        // Same plan, same fleet, second run: bit-exact replay.
        let second = gray.run_agg(&count_query()).unwrap();
        assert_eq!(first.result.elapsed, second.result.elapsed);
        for (a, b) in first.shards.iter().zip(second.shards.iter()) {
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut plain = fleet(4, FleetOptions::default());
        let plain_r = plain.run_agg(&count_query()).unwrap();
        let mut armed = fleet(4, FleetOptions::default());
        armed.arm_fault_plan(&FaultPlan::new());
        let armed_r = armed.run_agg(&count_query()).unwrap();
        assert_eq!(plain_r.result.elapsed, armed_r.result.elapsed);
        assert_eq!(plain_r.result.agg_values, armed_r.result.agg_values);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Hedging's retry budget is a hard cap, never a target: under any
        /// mix of per-shard slowdowns, hedge aggressiveness, and budget
        /// size, the fleet launches at most `hedge_budget` host copies
        /// (the rest are counted as denied), the answer stays bit-exact,
        /// and a replay reproduces the run to the nanosecond.
        #[test]
        fn hedges_never_exceed_the_retry_budget(
            factors in proptest::collection::vec(1u32..12, 4),
            hedge_factor in 0u32..4,
            budget in 0u32..5,
            weak_cpu in proptest::prelude::any::<bool>(),
        ) {
            let (from, until) = all_run();
            let mut plan = FaultPlan::new();
            for (d, &f) in factors.iter().enumerate() {
                if f > 1 {
                    plan = plan.slowdown(d, f, from, until);
                }
            }
            let opts = FleetOptions {
                hedge: true,
                hedge_factor: hedge_factor as f64 * 0.5,
                hedge_budget: budget,
                ..FleetOptions::default()
            };
            let cfg = if weak_cpu {
                weak_cpu_cfg()
            } else {
                SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax)
            };
            let run = || {
                let mut f = fleet_with(factors.len(), opts.clone(), cfg.clone());
                f.arm_fault_plan(&plan);
                f.run_agg(&count_query()).unwrap()
            };
            let r = run();

            assert_answers(&r);
            let hedged = r.shards.iter().filter(|s| s.hedged).count() as u64;
            proptest::prop_assert_eq!(r.faults.hedges, hedged);
            proptest::prop_assert!(
                r.faults.hedges <= budget as u64,
                "hedges {} exceed budget {}",
                r.faults.hedges,
                budget
            );
            // Denials are only ever the budget refusing a marked laggard,
            // and a won race implies a launched hedge.
            proptest::prop_assert!(r.faults.hedge_wins <= r.faults.hedges);
            if budget > 0 && r.faults.hedge_denied > 0 {
                proptest::prop_assert_eq!(r.faults.hedges, budget as u64);
            }

            // Bit-exact replay on an identically built fleet, hedging
            // decisions included.
            let again = run();
            proptest::prop_assert_eq!(again.result.elapsed, r.result.elapsed);
            proptest::prop_assert_eq!(again.faults, r.faults);
            for (a, b) in r.shards.iter().zip(again.shards.iter()) {
                proptest::prop_assert_eq!(a.finished_at, b.finished_at);
                proptest::prop_assert_eq!(a.hedged, b.hedged);
            }
        }
    }
}
