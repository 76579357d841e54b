//! One flash device and everything the host keeps for it — the unit a
//! [`System`](crate::System) holds 1..N of.
//!
//! The paper's Section 4.3 coordinator "stages computation across an array
//! of Smart SSDs"; a single system is that array with one member, and the
//! SAS SSD baseline is that member with its device route refused (the
//! prototype is "the same SSD" with a runtime added, so its block path is
//! this one). Whatever the host does *per device* therefore lives here,
//! once: the block-path read state its host route uses, the circuit breaker
//! that gates its device route, where the scheduler's device attempt in
//! flight stands on it, and the rule for settling that attempt — breaker and
//! fault bookkeeping, then either the answer, a host re-run, or a dead query.

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::config::{DeviceKind, SystemConfig};
use crate::system::RunError;
use smartssd_device::{DeviceConfig, DeviceError, SessionId, SmartSsd};
use smartssd_exec::{OpScratch, QueryOp};
use smartssd_host::{io::IoError, BufferPool, CommandState, LinkedFlashView, PageSource};
use smartssd_query::{HostEngine, RawRun, Route, SessionError, SessionFault, SessionOutcome};
use smartssd_sim::trace::pid;
use smartssd_sim::{Bus, CpuModel, FaultCounters, SimTime, TraceLevel, Tracer};
use smartssd_storage::PageDecodeCache;

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

/// A shard before its attempt: on the device route, nothing finished, no
/// recovery action taken.
pub(crate) const FRESH: ShardOutcome = ShardOutcome {
    device: 0,
    route: Route::Device,
    finished_at: SimTime::ZERO,
    fell_back: false,
    hedged: false,
    hedge_won: false,
};

/// Where the device attempt in flight stands on one shard, between the
/// scheduler's scatter and this shard's turn in the gather.
pub(crate) enum Phase {
    /// Not on the device route: the shard's partial comes from the host
    /// block path (its breaker said so). Also the resting state between
    /// attempts.
    Host,
    /// The `OPEN` failed.
    Failed(SessionFault),
    /// A live session, and the instant its `OPEN` completed.
    Session(SessionId, SimTime),
}

/// One device plus the host-side state that goes with it.
pub(crate) struct Shard {
    pub(crate) dev: SmartSsd,
    /// Health-aware routing state for this device, persisted across runs so
    /// sustained faults in one call keep it quarantined in the next.
    pub(crate) breaker: CircuitBreaker,
    pub(crate) pool: BufferPool,
    cmd: CommandState,
    /// Recoveries performed by the host-route read path over the device's
    /// flash (the device's own counters live in `dev`).
    host_faults: FaultCounters,
    /// Host-route per-LBA decode memo (the device route has its own inside
    /// `dev`).
    page_cache: PageDecodeCache,
    /// The host route's operator buffers, kept from one pass to the next
    /// as the device keeps its own, so a warm pass over this device's
    /// share reuses its scan-aggregate memo.
    scratch: OpScratch<SimTime>,
    /// Where the attempt in flight stands here.
    pub(crate) phase: Phase,
    /// How the most recent attempt went here.
    pub(crate) last: ShardOutcome,
}

impl Shard {
    pub(crate) fn new(cfg: &SystemConfig, device: usize) -> Self {
        // A plain SSD never opens a session, so its runtime is the default
        // one whatever `cfg.smart` says (only a Smart SSD's is validated).
        let runtime = match cfg.device {
            DeviceKind::SmartSsd => cfg.smart.clone(),
            _ => DeviceConfig::default(),
        };
        Self {
            dev: SmartSsd::new(cfg.flash.clone(), runtime),
            breaker: CircuitBreaker::new(cfg.breaker),
            pool: BufferPool::new(cfg.bufferpool_pages),
            cmd: CommandState::default(),
            host_faults: FaultCounters::default(),
            page_cache: PageDecodeCache::new(),
            scratch: OpScratch::default(),
            phase: Phase::Host,
            last: ShardOutcome { device, ..FRESH },
        }
    }

    /// The host block path over this device's flash: pages cross `link`
    /// into this shard's buffer pool.
    pub(crate) fn host_view<'a>(
        &'a mut self,
        link: &'a mut Bus,
        cmd_latency_ns: u64,
    ) -> LinkedFlashView<'a> {
        LinkedFlashView {
            ssd: &mut self.dev.flash,
            link,
            pool: &mut self.pool,
            cmd: &mut self.cmd,
            cmd_latency_ns,
            faults: &mut self.host_faults,
            page_cache: &mut self.page_cache,
        }
    }

    /// One host-engine pass over this device's share, its pages crossing
    /// `link` through [`Shard::host_view`], on the host route's kept
    /// scratch.
    pub(crate) fn host_pass(
        &mut self,
        link: &mut Bus,
        host_cpu: &mut CpuModel,
        cfg: &SystemConfig,
        tracer: &Tracer,
        op: &QueryOp,
        now: SimTime,
    ) -> Result<RawRun, RunError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut view = self.host_view(link, cfg.interface.command_latency_ns());
        let raw = host_pass(&mut view, &mut scratch, host_cpu, cfg, tracer, op, now);
        self.scratch = scratch;
        raw
    }

    /// Trims `lba` on the device's flash and drops it from both decode
    /// memos, the device's and the host route's, so neither keeps the
    /// replaced page alive.
    pub(crate) fn trim(&mut self, lba: u64) -> Result<(), RunError> {
        self.dev
            .trim(lba)
            .map_err(|e| RunError::from(IoError::Flash(e)))?;
        self.page_cache.forget(lba);
        Ok(())
    }

    /// Faults absorbed so far this run by the device and by the host block
    /// path over it.
    pub(crate) fn faults(&self) -> FaultCounters {
        let mut f = self.dev.fault_counters();
        f.absorb(&self.host_faults);
        f
    }

    /// Clears the device's timelines and the host-side per-run state. The
    /// breaker and the buffer pool persist across runs.
    pub(crate) fn reset_timing(&mut self) {
        self.dev.reset_timing();
        self.cmd.reset();
        self.host_faults = FaultCounters::default();
    }

    /// Books a device attempt that delivered its answer: the breaker
    /// learns a success and a service-time sample (a gray device opens it
    /// with zero hard failures), both stamped `stamp` on the breaker clock.
    /// Service time runs from the `OPEN`'s completion at `open_done`: on a
    /// shared link an `OPEN` queues behind its siblings', and that wait says
    /// nothing about this device's health.
    pub(crate) fn settle_done(
        &mut self,
        out: &SessionOutcome,
        open_done: SimTime,
        stamp: SimTime,
        faults: &mut FaultCounters,
    ) {
        self.breaker.record_success(stamp);
        let service = out.finished_at.saturating_sub(open_done);
        if self.breaker.record_service_time(stamp, service) {
            faults.slow_trips += 1;
        }
    }

    /// Books a faulted device attempt (the driver has already closed the
    /// session) — the single fallback rule every engine follows. The
    /// breaker learns a failure stamped `stamp` on its clock, and the time
    /// burned past `dispatched` (the attempt's start on the run's timeline)
    /// is charged to `faults`. Malformed payloads, invalid operators and
    /// unknown extents would fail on the host too (it reads the same
    /// extent), so they kill the query; everything else (uncorrectable
    /// flash, resource rejection, firmware crash, a `GET` that stalls at
    /// the device's readiness hint) degrades it to the host route.
    ///
    /// Returns the earliest instant anything can happen after the fault —
    /// the driver's `CLOSE` frees the session's slot then, and a host
    /// re-run starts no earlier, so the wasted device time stays on the
    /// query's clock — and the fault itself if it is unrecoverable: the
    /// query is dead as of that instant.
    pub(crate) fn settle_fault(
        &mut self,
        fault: SessionFault,
        stamp: SimTime,
        dispatched: SimTime,
        faults: &mut FaultCounters,
    ) -> (SimTime, Option<SessionFault>) {
        self.breaker.record_failure(stamp);
        // `fault.wasted` is an absolute instant; only the time past the
        // dispatch was actually burned.
        faults.wasted_ns += fault.wasted.saturating_sub(dispatched).as_nanos();
        let resume = dispatched.max(fault.wasted);
        let dead = if fault_is_recoverable(&fault.error) {
            faults.fallbacks += 1;
            None
        } else {
            Some(fault)
        };
        (resume, dead)
    }

    /// Drains the breaker transitions recorded since `base` (the breaker
    /// clock at the start of the current run) into `out`, re-based onto the
    /// run's own timeline, and emits each one as a trace instant on this
    /// device's lane of the RUN track.
    pub(crate) fn drain_breaker_transitions(
        &mut self,
        base: SimTime,
        tracer: &Tracer,
        out: &mut Vec<BreakerTransition>,
    ) {
        let (level, lane) = (TraceLevel::Protocol, self.last.device as u32);
        for t in self.breaker.take_transitions() {
            let at = t.at.saturating_sub(base);
            let name = match t.to {
                BreakerState::Closed => "breaker-closed",
                BreakerState::Open => "breaker-open",
                BreakerState::HalfOpen => "breaker-half-open",
            };
            tracer.instant(level, pid::RUN, lane, name, "run", at, &[]);
            out.push(BreakerTransition { at, to: t.to });
        }
    }
}

/// Whether a session failure may be recovered by re-running on the host.
fn fault_is_recoverable(error: &SessionError) -> bool {
    match error {
        SessionError::Device(e) => !matches!(
            e,
            DeviceError::Wire(_) | DeviceError::Validation(_) | DeviceError::UnknownExtent { .. }
        ),
        // A firmware crash killed the session, but the block path (and thus
        // the host route) is a separate failure domain.
        SessionError::DeviceReset { .. } => true,
        SessionError::Hung { .. } => true,
    }
}

/// One host-engine pass over `source` on `scratch`, starting at simulated
/// time `now`, returning the raw (pre-finalize) output so a coordinator
/// can merge it with other shards' partials.
pub(crate) fn host_pass<S: PageSource>(
    source: &mut S,
    scratch: &mut OpScratch<SimTime>,
    host_cpu: &mut CpuModel,
    cfg: &SystemConfig,
    tracer: &Tracer,
    op: &QueryOp,
    now: SimTime,
) -> Result<RawRun, RunError> {
    HostEngine::new(source, host_cpu, cfg.host_costs)
        .with_tracer(tracer.clone())
        .run_raw(op, now, cfg.host_dop, scratch)
        .map_err(RunError::from)
}
