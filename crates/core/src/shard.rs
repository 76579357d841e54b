//! One Smart SSD and everything the host keeps for it — the unit both the
//! single-device [`System`](crate::System) and the
//! [`SmartSsdFleet`](crate::SmartSsdFleet) are built from.
//!
//! The paper's Section 4.3 coordinator "stages computation across an array
//! of Smart SSDs"; a single system is that array with one member. Whatever
//! the host does *per device* therefore lives here, once: the block-path
//! read state its host route uses, the circuit breaker that gates its
//! device route, and the rule for settling a finished device attempt —
//! breaker and fault bookkeeping, then either the answer, a host re-run, or
//! a dead query.

use crate::breaker::{BreakerState, BreakerTransition, CircuitBreaker};
use crate::config::SystemConfig;
use crate::system::RunError;
use smartssd_device::{DeviceError, SmartSsd};
use smartssd_exec::QueryOp;
use smartssd_host::{BufferPool, CommandState, LinkedFlashView, PageSource};
use smartssd_query::{HostEngine, RawRun, SessionError, SessionFault, SessionOutcome};
use smartssd_sim::trace::pid;
use smartssd_sim::{mb_per_sec, Bus, CpuModel, FaultCounters, SimTime, TraceLevel, Tracer};
use smartssd_storage::PageDecodeCache;

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
}

/// A device attempt that faulted, settled: the driver closed its session,
/// which frees its slot at `at`.
pub(crate) struct Fallen {
    /// The earliest instant anything can happen after the fault. A
    /// recoverable fault re-runs the query on the host block path — a
    /// separate failure domain — no earlier than this, so the wasted device
    /// time stays on the query's clock.
    pub at: SimTime,
    /// Set when the fault is unrecoverable: the query is dead as of `at`.
    pub dead: Option<SessionFault>,
}

impl Shard {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        Self {
            dev: SmartSsd::new(cfg.flash.clone(), cfg.smart.clone()),
            breaker: CircuitBreaker::new(cfg.breaker),
            pool: BufferPool::new(cfg.bufferpool_pages),
            cmd: CommandState::default(),
            host_faults: FaultCounters::default(),
            page_cache: PageDecodeCache::new(),
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
    /// Service time runs from `service_from` on the run's timeline — the
    /// dispatch instant for a workload arrival, the `OPEN`'s completion
    /// for a fleet shard (whose `OPEN` queues on the shared link behind
    /// its siblings').
    pub(crate) fn settle_done(
        &mut self,
        out: &SessionOutcome,
        stamp: SimTime,
        service_from: SimTime,
        faults: &mut FaultCounters,
    ) {
        self.breaker.record_success(stamp);
        let service = out.finished_at.saturating_sub(service_from);
        if self.breaker.record_service_time(stamp, service) {
            faults.slow_trips += 1;
        }
        faults.get_retries += out.get_retries;
    }

    /// Books a faulted device attempt (the driver has already closed the
    /// session) — the single fallback rule every engine follows. The
    /// breaker learns a failure stamped `stamp` on its clock, and the
    /// retries and the time burned past `dispatched` (the attempt's start
    /// on the run's timeline) are charged to `faults`. Malformed payloads
    /// and invalid operators would fail on the host too, so they kill the
    /// query; everything else (uncorrectable flash, resource rejection,
    /// firmware crash, hang, timeout) degrades it to the host route,
    /// starting no earlier than the fault.
    pub(crate) fn settle_fault(
        &mut self,
        fault: SessionFault,
        stamp: SimTime,
        dispatched: SimTime,
        faults: &mut FaultCounters,
    ) -> Fallen {
        self.breaker.record_failure(stamp);
        faults.get_retries += fault.get_retries;
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
        Fallen { at: resume, dead }
    }

    /// Drains the breaker transitions recorded since `base` (the breaker
    /// clock at the start of the current run), re-based onto the run's own
    /// timeline, and emits each one as a trace instant on `(pid, tid)`.
    pub(crate) fn take_breaker_transitions(
        &mut self,
        base: SimTime,
        tracer: &Tracer,
        (pid, tid): (u32, u32),
        cat: &str,
    ) -> Vec<BreakerTransition> {
        let transitions: Vec<BreakerTransition> = self
            .breaker
            .take_transitions()
            .into_iter()
            .map(|t| BreakerTransition {
                at: t.at.saturating_sub(base),
                to: t.to,
            })
            .collect();
        for t in &transitions {
            let name = match t.to {
                BreakerState::Closed => "breaker-closed",
                BreakerState::Open => "breaker-open",
                BreakerState::HalfOpen => "breaker-half-open",
            };
            tracer.instant(TraceLevel::Protocol, pid, tid, name, cat, t.at, &[]);
        }
        transitions
    }
}

/// The host side every shard hangs off: the interface link and the host
/// CPU, both reporting to `tracer`.
pub(crate) fn host_side(cfg: &SystemConfig, tracer: &Tracer) -> (Bus, CpuModel) {
    let mbps = cfg.interface.effective_mbps();
    let mut link = Bus::new("host-interface", mb_per_sec(mbps), 0);
    link.set_tracer(tracer.clone(), pid::INTERFACE, 0);
    let mut host_cpu = CpuModel::new("host-cpu", cfg.host_cpu_cores, cfg.host_cpu_hz);
    host_cpu.set_tracer(tracer.clone(), pid::HOST_CPU);
    (link, host_cpu)
}

/// Whether a session failure may be recovered by re-running on the host.
fn fault_is_recoverable(error: &SessionError) -> bool {
    match error {
        SessionError::Device(e) => !matches!(e, DeviceError::Wire(_) | DeviceError::Validation(_)),
        // A firmware crash killed the session, but the block path (and thus
        // the host route) is a separate failure domain.
        SessionError::DeviceReset { .. } => true,
        SessionError::Timeout { .. } | SessionError::Hung { .. } => true,
    }
}

/// One host-engine pass over `source` starting at simulated time `now`,
/// returning the raw (pre-finalize) output so a coordinator can merge it
/// with other shards' partials.
pub(crate) fn host_pass<S: PageSource>(
    source: &mut S,
    host_cpu: &mut CpuModel,
    cfg: &SystemConfig,
    tracer: &Tracer,
    op: &QueryOp,
    now: SimTime,
) -> Result<RawRun, RunError> {
    HostEngine::new(source, host_cpu, cfg.host_costs)
        .with_tracer(tracer.clone())
        .run_raw(op, now, cfg.host_dop)
        .map_err(RunError::from)
}
