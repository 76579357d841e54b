//! Fault-tolerant host-side driver for the Smart SSD session protocol.
//!
//! The paper's API is host-initiated: the DBMS issues `OPEN`, polls with
//! `GET`, and `CLOSE`s the session (Section 3). A production DBMS cannot
//! assume those calls succeed — sessions are rejected when thread or memory
//! grants run out, and a mid-scan flash failure kills the session outright.
//! [`SessionDriver`] wraps the protocol with the recovery discipline the
//! paper's Discussion expects the host to keep: a typed [`SessionFault`] on
//! failure that carries the simulated time the failed attempt burned, so
//! the caller can degrade to host execution without losing the cost of the
//! detour.
//!
//! The device computes a session's batch queue when it is opened, so a
//! `Running { ready_at }` answer names the exact instant the front batch is
//! ready: the driver posts its next `GET` there, and that `GET` gets the
//! batch. A second `Running` in a row means the device broke that promise,
//! and the session is abandoned as [`SessionError::Hung`]. A collection
//! stops at one instant only, the caller's cancel instant.

use smartssd_device::{DeviceError, GetResponse, SessionId, SmartSsd};
use smartssd_exec::{QueryOp, WorkCounts};
use smartssd_sim::trace::pid;
use smartssd_sim::{Bus, CpuModel, Interval, SimTime, TraceLevel, Tracer};
use smartssd_storage::expr::AggState;
use smartssd_storage::Tuple;
use std::fmt;

/// Kept so existing callers of [`SessionDriver::new`] still build; the
/// driver has no knobs.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct SessionPolicy;

/// Why a session was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The device rejected or failed the session.
    Device(DeviceError),
    /// A `GET` posted at the device's own readiness hint came back
    /// `Running` again.
    Hung {
        /// Simulated time of the stalled poll.
        at: SimTime,
    },
    /// The device firmware crashed (or is still resetting): this session —
    /// and every other open session on the device — is dead, and no new
    /// session is admitted until `until`. Recoverable by host fallback: the
    /// block path is a separate failure domain and survives the crash.
    DeviceReset {
        /// Simulated time the firmware reset completes.
        until: SimTime,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Device(e) => write!(f, "device: {e}"),
            SessionError::Hung { at } => {
                write!(
                    f,
                    "session hung: GET at its readiness hint stalled (at {at})"
                )
            }
            SessionError::DeviceReset { until } => {
                write!(
                    f,
                    "device firmware reset killed the session (up until {until})"
                )
            }
        }
    }
}

/// A failed session, with the accounting the caller needs to degrade
/// gracefully: the simulated time the attempt burned. The driver has
/// already `CLOSE`d the session (best-effort) by the time this is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFault {
    /// What went wrong.
    pub error: SessionError,
    /// Simulated time burned on the failed attempt — the earliest moment a
    /// host-side fallback can start.
    pub wasted: SimTime,
}

impl fmt::Display for SessionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (wasted {})", self.error, self.wasted)
    }
}

impl std::error::Error for SessionFault {}

/// Result of a *cancellable* collection: either the session ran to
/// completion, or the host issued an early `CLOSE` at the cancel instant.
/// Cancellation is not a fault — it is the host changing its mind (a
/// client disconnect, a shed mid-flight query, an admission-control
/// preemption) — so it gets its own type instead of a [`SessionError`].
#[derive(Debug, Clone)]
pub enum Collected {
    /// The session ran to completion; it is left **open** so a scheduler
    /// can hold its slot until the simulated close.
    Done(SessionOutcome),
    /// The host issued `CLOSE` at `at`, before completion. The session has
    /// been closed (best-effort) and its slot is free from `at` on; any
    /// un-consumed device batches are abandoned — their remaining work is
    /// genuinely saved, which is the scheduling value of cancellation.
    Canceled {
        /// The simulated instant the `CLOSE` took effect.
        at: SimTime,
    },
}

/// Everything a completed session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Materialized output rows.
    pub rows: Vec<Tuple>,
    /// Merged aggregate states, if the operator aggregates.
    pub aggs: Option<Vec<AggState>>,
    /// Operator work receipt from the device.
    pub work: WorkCounts,
    /// Simulated time at which the host finished consuming the results.
    pub finished_at: SimTime,
}

/// Drives OPEN/GET/CLOSE against a [`SmartSsd`].
#[derive(Debug, Clone, Default)]
pub struct SessionDriver {
    tracer: Tracer,
    lane: u32,
}

impl SessionDriver {
    /// An untraced driver on lane 0 (the same as `default()`).
    pub fn new(_: SessionPolicy) -> Self {
        Self::default()
    }

    /// Attaches a tracer: protocol phases (OPEN, per-batch GET and the
    /// waits between them, CLOSE) are emitted under the session pid.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Assigns this driver's trace lane (the `tid` under the session pid).
    /// Concurrent workloads give each in-flight query its own lane so
    /// overlapped sessions render side by side in Perfetto; the default
    /// lane 0 keeps single-query traces unchanged.
    pub fn with_lane(mut self, lane: u32) -> Self {
        self.lane = lane;
        self
    }

    /// Emits one protocol-phase span `[start, end)`.
    fn phase(&self, name: &str, start: SimTime, end: SimTime, args: &[(&str, f64)]) {
        self.tracer.span(
            TraceLevel::Protocol,
            pid::SESSION,
            self.lane,
            name,
            "session",
            Interval { start, end },
            args,
        );
    }

    /// Emits one protocol instant at `at`.
    fn instant(&self, name: &str, at: SimTime, args: &[(&str, f64)]) {
        self.tracer.instant(
            TraceLevel::Protocol,
            pid::SESSION,
            self.lane,
            name,
            "session",
            at,
            args,
        );
    }

    /// Best-effort CLOSE on the abandon path: the session may already be
    /// gone (e.g. the OPEN itself failed), which is fine.
    fn abandon(
        &self,
        dev: &mut SmartSsd,
        sid: Option<SessionId>,
        error: SessionError,
        wasted: SimTime,
    ) -> SessionFault {
        if let Some(sid) = sid {
            let _ = dev.close(sid);
        }
        self.instant("session-fault", wasted, &[]);
        SessionFault { error, wasted }
    }

    /// Runs one full session over the host interface: the `OPEN` payload
    /// and every result batch cross `link`, and the host pays a per-batch
    /// receive/merge cost on `host_cpu`.
    pub fn run_linked(
        &self,
        dev: &mut SmartSsd,
        link: &mut Bus,
        host_cpu: &mut CpuModel,
        cmd_latency_ns: u64,
        op: &QueryOp,
    ) -> Result<SessionOutcome, SessionFault> {
        let (sid, _) =
            self.open_session(dev, Some((&mut *link, cmd_latency_ns)), op, SimTime::ZERO)?;
        // Polling starts at time zero (not when the `OPEN` completed): the
        // first poll comes back `Running` with the device's readiness hint
        // and the clock jumps there.
        self.collect_and_close(dev, Some((link, host_cpu)), sid, SimTime::ZERO)
    }

    /// `OPEN` at simulated time `at`. With `link` — the host interface and
    /// its per-command latency — the marshalled operator crosses it first
    /// (paper Section 3) and the device unmarshals it; without, the session
    /// opens in place at `at`. Either way the device validates the operator
    /// and starts executing. Returns the session and the instant the `OPEN`
    /// completed; a failed `OPEN` is a fault carrying the time it wasted.
    pub fn open_session(
        &self,
        dev: &mut SmartSsd,
        link: Option<(&mut Bus, u64)>,
        op: &QueryOp,
        at: SimTime,
    ) -> Result<(SessionId, SimTime), SessionFault> {
        let (opened, done) = match link {
            Some((link, cmd_latency_ns)) => {
                let payload = smartssd_exec::encode_op(op);
                let bytes = payload.len() as u64;
                let done = link.transfer_with_setup(at, bytes, cmd_latency_ns).end;
                self.phase("OPEN", at, done, &[("payload_bytes", bytes as f64)]);
                (dev.open_raw(&payload, done), done)
            }
            None => (dev.open(op, at), at),
        };
        opened
            .map(|sid| (sid, done))
            .map_err(|e| self.device_fault(dev, None, e, done))
    }

    /// Polls a session from `from` until the device reports `Done` — or,
    /// if the collection clock reaches `cancel_at` first, stops polling
    /// and `CLOSE`s the session there: its slot is free from `cancel_at`
    /// on, and device batches never consumed are work genuinely saved.
    /// `SimTime::MAX` makes it a plain collection. With `io` — the host
    /// interface and the CPU that receives results — every batch crosses
    /// the link and costs the host a receive/merge, and the per-batch
    /// protocol phases are traced; without, a batch is consumed silently at
    /// its `ready_at`. A completed session is left **open**, so a scheduler
    /// can hold its slot until the simulated close; a canceled or faulted
    /// one has been closed (best-effort: a crashed device may already have
    /// dropped it).
    pub fn collect_session(
        &self,
        dev: &mut SmartSsd,
        mut io: Option<(&mut Bus, &mut CpuModel)>,
        sid: SessionId,
        from: SimTime,
        cancel_at: SimTime,
    ) -> Result<Collected, SessionFault> {
        let mut c = Collection {
            t: from,
            ..Collection::default()
        };
        while c.t < cancel_at {
            if self.poll(dev, &mut io, sid, &mut c)? {
                return Ok(Collected::Done(SessionOutcome {
                    work: dev.session_work(sid).copied().unwrap_or_default(),
                    finished_at: c.t,
                    rows: c.rows,
                    aggs: c.aggs,
                }));
            }
        }
        let _ = dev.close(sid);
        self.instant("canceled", cancel_at, &[]);
        Ok(Collected::Canceled { at: cancel_at })
    }

    /// Collects a session to completion from `from` and `CLOSE`s it.
    fn collect_and_close(
        &self,
        dev: &mut SmartSsd,
        io: Option<(&mut Bus, &mut CpuModel)>,
        sid: SessionId,
        from: SimTime,
    ) -> Result<SessionOutcome, SessionFault> {
        let out = match self.collect_session(dev, io, sid, from, SimTime::MAX)? {
            Collected::Done(out) => out,
            // Only a clock saturated at `SimTime::MAX` reaches the cancel
            // instant: the device never finished.
            Collected::Canceled { at } => {
                return Err(self.abandon(dev, None, SessionError::Hung { at }, at));
            }
        };
        self.close(dev, sid, &out)?;
        Ok(out)
    }

    /// One `GET` at the collection clock, with or without `io` as in
    /// [`Self::collect_session`]. Returns `true` once the device reports
    /// `Done`.
    fn poll(
        &self,
        dev: &mut SmartSsd,
        io: &mut Option<(&mut Bus, &mut CpuModel)>,
        sid: SessionId,
        c: &mut Collection,
    ) -> Result<bool, SessionFault> {
        match dev.get(sid, c.t) {
            Ok(GetResponse::Running { ready_at }) => {
                if c.waited {
                    // The poll at the device's own hint found no batch.
                    let err = SessionError::Hung { at: c.t };
                    return Err(self.abandon(dev, Some(sid), err, c.t));
                }
                if io.is_some() {
                    self.phase("GET-wait", c.t, ready_at, &[]);
                }
                c.t = ready_at;
                c.waited = true;
            }
            Ok(GetResponse::Batch(batch)) => {
                c.waited = false;
                let ready = c.t.max(batch.ready_at);
                c.t = match io {
                    Some((link, host_cpu)) => {
                        // Results cross the host interface (even an empty
                        // completion batch costs one status transfer), then
                        // the host pays its receive + merge cost.
                        let iv = link.transfer(ready, batch.bytes.max(64));
                        let done = host_cpu.execute(iv.end, 20_000 + batch.bytes / 2).end;
                        self.phase("GET", iv.start, done, &[("bytes", batch.bytes as f64)]);
                        done
                    }
                    None => ready,
                };
                c.rows.extend(batch.rows);
                if let Some(parts) = batch.aggs {
                    AggState::merge_partials(&mut c.aggs, parts);
                }
            }
            Ok(GetResponse::Done) => return Ok(true),
            Err(e) => return Err(self.device_fault(dev, Some(sid), e, c.t)),
        }
        Ok(false)
    }

    /// `CLOSE`s a successfully collected session, emitting the protocol
    /// instant at the outcome's finish time.
    pub fn close(
        &self,
        dev: &mut SmartSsd,
        sid: SessionId,
        out: &SessionOutcome,
    ) -> Result<(), SessionFault> {
        let at = out.finished_at;
        dev.close(sid)
            .map_err(|e| self.device_fault(dev, None, e, at))?;
        self.instant("CLOSE", at, &[]);
        Ok(())
    }

    /// `OPEN`s a session directly on the device (no interface modelling) —
    /// the shape multi-session experiments use, where N sessions open
    /// before any is drained.
    pub fn open(
        &self,
        dev: &mut SmartSsd,
        op: &QueryOp,
        now: SimTime,
    ) -> Result<SessionId, SessionFault> {
        self.open_session(dev, None, op, now).map(|(sid, _)| sid)
    }

    /// Polls a session opened with [`SessionDriver::open`] to completion
    /// and `CLOSE`s it, without interface modelling (batch consumption is
    /// instantaneous at `ready_at`).
    pub fn drain_direct(
        &self,
        dev: &mut SmartSsd,
        sid: SessionId,
        opened_at: SimTime,
    ) -> Result<SessionOutcome, SessionFault> {
        self.collect_and_close(dev, None, sid, opened_at)
    }

    /// Abandons the session on a device error seen at `at`, lifted into
    /// the session-level vocabulary: a firmware reset gets its own typed
    /// variant (so routing layers can treat the whole-device failure domain
    /// specially); everything else stays a wrapped device error. The fault
    /// wastes time up to the error's own instant when it carries a later
    /// one, so it says how long the failed attempt actually took.
    fn device_fault(
        &self,
        dev: &mut SmartSsd,
        sid: Option<SessionId>,
        e: DeviceError,
        at: SimTime,
    ) -> SessionFault {
        let wasted = match &e {
            DeviceError::RetriesExhausted { at: failed, .. } => at.max(*failed),
            // Crashed firmware can't answer: the host learns the session is
            // dead only when the reset completes and the device reports it,
            // so the whole downtime is wasted on whoever was talking to it.
            DeviceError::DeviceReset { until, .. } => at.max(*until),
            _ => at,
        };
        let error = match e {
            DeviceError::DeviceReset { until, .. } => SessionError::DeviceReset { until },
            other => SessionError::Device(other),
        };
        self.abandon(dev, sid, error, wasted)
    }
}

/// A collection in progress: what has been gathered so far, the collection
/// clock, and whether the last poll came back `Running` (so the clock now
/// stands at the device's readiness hint).
#[derive(Default)]
struct Collection {
    rows: Vec<Tuple>,
    aggs: Option<Vec<AggState>>,
    t: SimTime,
    waited: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartssd_device::DeviceConfig;
    use smartssd_exec::spec::ScanAggSpec;
    use smartssd_flash::FlashConfig;
    use smartssd_sim::mb_per_sec;
    use smartssd_storage::expr::{AggSpec, Pred};
    use smartssd_storage::{DataType, Datum, Layout, Schema, TableBuilder};

    fn loaded(
        flash: FlashConfig,
        cfg: DeviceConfig,
        n: i32,
    ) -> (SmartSsd, smartssd_exec::TableRef) {
        let s = Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut b = TableBuilder::new("t", s, Layout::Pax);
        b.extend((0..n).map(|k| vec![Datum::I32(k), Datum::I64(k as i64)] as Tuple));
        let img = b.finish();
        let mut dev = SmartSsd::new(flash, cfg);
        let tref = dev.load_table(&img, 0).unwrap();
        dev.reset_timing();
        (dev, tref)
    }

    fn count_op(tref: smartssd_exec::TableRef) -> QueryOp {
        QueryOp::ScanAgg {
            table: tref,
            spec: ScanAggSpec {
                pred: Pred::Const(true),
                aggs: vec![AggSpec::count()],
            },
        }
    }

    #[test]
    fn linked_run_completes_and_counts_no_retries_when_healthy() {
        let (mut dev, tref) = loaded(FlashConfig::default(), DeviceConfig::default(), 20_000);
        let mut link = Bus::new("host-interface", mb_per_sec(550), 0);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let driver = SessionDriver::default();
        let out = driver
            .run_linked(&mut dev, &mut link, &mut cpu, 20_000, &count_op(tref))
            .unwrap();
        assert_eq!(out.aggs.unwrap()[0].finish(), 20_000);
        assert!(out.finished_at > SimTime::ZERO);
    }

    #[test]
    fn direct_run_matches_linked_answer() {
        let (mut dev, tref) = loaded(FlashConfig::default(), DeviceConfig::default(), 10_000);
        let driver = SessionDriver::default();
        let sid = driver
            .open(&mut dev, &count_op(tref), SimTime::ZERO)
            .unwrap();
        let out = driver.drain_direct(&mut dev, sid, SimTime::ZERO).unwrap();
        assert_eq!(out.aggs.unwrap()[0].finish(), 10_000);
    }

    /// A session abandoned mid-collection after a successful `OPEN`: a
    /// firmware crash scripted halfway through the scan kills it at the
    /// next `GET`, the fault wastes the whole reset, and a single-slot
    /// device takes a fresh session once the reset is over.
    #[test]
    fn mid_collection_crash_abandons_the_session() {
        let mut link = Bus::new("host-interface", mb_per_sec(550), 0);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let driver = SessionDriver::default();
        let single = || DeviceConfig {
            max_sessions: 1,
            ..DeviceConfig::default()
        };
        let (mut dev, tref) = loaded(FlashConfig::default(), single(), 50_000);
        let op = count_op(tref);
        let healthy = driver
            .run_linked(&mut dev, &mut link, &mut cpu, 20_000, &op)
            .unwrap();
        let crash_at = SimTime::from_nanos(healthy.finished_at.as_nanos() / 2);
        let plan = smartssd_sim::FaultPlan::new().crash_at(0, crash_at);
        let (mut dev, tref) = loaded(
            FlashConfig::default(),
            DeviceConfig {
                fault_plan: plan.for_device(0),
                ..single()
            },
            50_000,
        );
        let op = count_op(tref);
        link.reset();
        cpu.reset();
        let fault = driver
            .run_linked(&mut dev, &mut link, &mut cpu, 20_000, &op)
            .unwrap_err();
        let SessionError::DeviceReset { until } = fault.error else {
            panic!("expected a firmware reset, got {fault}");
        };
        assert!(until > crash_at);
        assert_eq!(fault.wasted, until);
        assert_eq!(dev.open_sessions(), 0);
        let sid = driver.open(&mut dev, &op, until).unwrap();
        let out = driver.drain_direct(&mut dev, sid, until).unwrap();
        assert_eq!(out.aggs.unwrap()[0].finish(), 50_000);
    }

    #[test]
    fn open_rejection_surfaces_as_device_fault() {
        let (mut dev, tref) = loaded(
            FlashConfig::default(),
            DeviceConfig {
                max_sessions: 1,
                ..DeviceConfig::default()
            },
            1_000,
        );
        let driver = SessionDriver::default();
        let op = count_op(tref);
        let _held = driver.open(&mut dev, &op, SimTime::ZERO).unwrap();
        let fault = driver.open(&mut dev, &op, SimTime::ZERO).unwrap_err();
        assert_eq!(
            fault.error,
            SessionError::Device(DeviceError::TooManySessions)
        );
    }

    #[test]
    fn cancellation_closes_session_and_frees_its_slot() {
        // A single-slot device: cancel the first session mid-flight, then a
        // second must open — proof the early CLOSE really freed the slot.
        let (mut dev, tref) = loaded(
            FlashConfig::default(),
            DeviceConfig {
                max_sessions: 1,
                ..DeviceConfig::default()
            },
            50_000,
        );
        let driver = SessionDriver::default();
        let op = count_op(tref);
        let sid = driver.open(&mut dev, &op, SimTime::ZERO).unwrap();
        let cancel_at = SimTime::from_nanos(10);
        let got = driver
            .collect_session(&mut dev, None, sid, SimTime::ZERO, cancel_at)
            .unwrap();
        match got {
            Collected::Canceled { at, .. } => assert_eq!(at, cancel_at),
            Collected::Done(_) => panic!("a 10 ns budget cannot finish a 50k-row scan"),
        }
        assert_eq!(dev.open_sessions(), 0, "cancel must close the session");
        let sid2 = driver.open(&mut dev, &op, cancel_at).unwrap();
        let done = driver.drain_direct(&mut dev, sid2, cancel_at).unwrap();
        assert_eq!(done.aggs.unwrap()[0].finish(), 50_000);
    }

    #[test]
    fn max_cancel_instant_is_a_plain_collection() {
        let (mut dev, tref) = loaded(FlashConfig::default(), DeviceConfig::default(), 10_000);
        let driver = SessionDriver::default();
        let op = count_op(tref);
        let sid = driver.open(&mut dev, &op, SimTime::ZERO).unwrap();
        let got = driver
            .collect_session(&mut dev, None, sid, SimTime::ZERO, SimTime::MAX)
            .unwrap();
        let Collected::Done(out) = got else {
            panic!("MAX cancel must never fire");
        };
        assert_eq!(out.aggs.as_ref().unwrap()[0].finish(), 10_000);
        driver.close(&mut dev, sid, &out).unwrap();
    }
}
