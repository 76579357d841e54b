//! Fault-tolerant host-side driver for the Smart SSD session protocol.
//!
//! The paper's API is host-initiated: the DBMS issues `OPEN`, polls with
//! `GET`, and `CLOSE`s the session (Section 3). A production DBMS cannot
//! assume those calls succeed — sessions are rejected when thread or memory
//! grants run out, and a mid-scan flash failure kills the session outright.
//! [`SessionDriver`] wraps the protocol with the recovery discipline the
//! paper's Discussion expects the host to keep: bounded `GET` retries with
//! exponential backoff, a per-session simulated-time budget, and a typed
//! [`SessionFault`] on failure that carries the simulated time the failed
//! attempt burned, so the caller can degrade to host execution without
//! losing the cost of the detour.
//!
//! With the default [`SessionPolicy`] the driver's happy path is
//! *bit-identical* to the inline protocol loops it replaced: the first poll
//! after a `Running { ready_at }` hint is posted at
//! `ready_at.max(t + 1ns)`, backoff only engages on consecutive stalled
//! polls (which a healthy device never produces), and the timeout defaults
//! to infinity.

use smartssd_device::{DeviceError, GetResponse, SessionId, SmartSsd};
use smartssd_exec::{QueryOp, WorkCounts};
use smartssd_sim::trace::pid;
use smartssd_sim::{Bus, CpuModel, Interval, SimTime, TraceLevel, Tracer};
use smartssd_storage::expr::AggState;
use smartssd_storage::Tuple;
use std::fmt;

/// Recovery knobs for one session. Defaults preserve the protocol's
/// original timing exactly; they only change behavior when the device
/// misbehaves.
#[derive(Debug, Clone)]
pub struct SessionPolicy {
    /// Consecutive `GET` polls that may come back `Running` *after* the
    /// device's own readiness hint before the driver declares the session
    /// hung. A healthy device never stalls a poll posted at its hint, so
    /// this bound is never reached in normal operation.
    pub max_get_retries: u32,
    /// Minimum spacing between a poll and the previous response. Doubles
    /// on every consecutive stalled poll (exponential backoff), capped at
    /// [`SessionPolicy::backoff_cap`]. The 1 ns default reproduces the
    /// original inline loops bit-for-bit.
    pub poll_backoff: SimTime,
    /// Upper bound on the backoff step.
    pub backoff_cap: SimTime,
    /// Simulated-time budget from `OPEN` to the final `Done`. Exceeding it
    /// abandons the session with [`SessionError::Timeout`].
    pub session_timeout: SimTime,
}

impl Default for SessionPolicy {
    fn default() -> Self {
        Self {
            max_get_retries: 64,
            poll_backoff: SimTime::from_nanos(1),
            backoff_cap: SimTime::from_millis(1),
            session_timeout: SimTime::MAX,
        }
    }
}

/// Why a session was abandoned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The device rejected or failed the session.
    Device(DeviceError),
    /// The session exceeded its simulated-time budget.
    Timeout {
        /// Simulated time at which the budget ran out.
        at: SimTime,
    },
    /// `GET` stalled past the retry budget: the device kept answering
    /// `Running` at its own readiness hints.
    Hung {
        /// Stalled polls spent before giving up.
        stalled_polls: u32,
        /// Simulated time of the final stalled poll.
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
            SessionError::Timeout { at } => write!(f, "session timed out at {at}"),
            SessionError::Hung { stalled_polls, at } => {
                write!(
                    f,
                    "session hung after {stalled_polls} stalled GETs (at {at})"
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
/// gracefully: the simulated time the attempt burned and the `GET` retries
/// it spent before giving up. The driver has already `CLOSE`d the session
/// (best-effort) by the time this is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionFault {
    /// What went wrong.
    pub error: SessionError,
    /// Simulated time burned on the failed attempt — the earliest moment a
    /// host-side fallback can start.
    pub wasted: SimTime,
    /// Stalled `GET` polls repeated before the failure.
    pub get_retries: u64,
}

impl fmt::Display for SessionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (wasted {}, {} GET retries)",
            self.error, self.wasted, self.get_retries
        )
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
        /// Stalled `GET` polls spent before the cancel.
        get_retries: u64,
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
    /// Stalled `GET` polls absorbed along the way (0 on a healthy device).
    pub get_retries: u64,
}

/// Drives OPEN/GET/CLOSE against a [`SmartSsd`] under a [`SessionPolicy`].
#[derive(Debug, Clone, Default)]
pub struct SessionDriver {
    /// The recovery policy applied to every session this driver runs.
    pub policy: SessionPolicy,
    tracer: Tracer,
    lane: u32,
}

impl SessionDriver {
    /// A driver with the given policy.
    pub fn new(policy: SessionPolicy) -> Self {
        Self {
            policy,
            tracer: Tracer::none(),
            lane: 0,
        }
    }

    /// Attaches a tracer: protocol phases (OPEN, per-batch GET, CLOSE),
    /// stalled-poll retries and backoff waits are emitted under the session
    /// pid.
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

    /// Backoff step for the given number of consecutive stalled polls.
    /// `backoff_cap >= poll_backoff` is validated at build time, so the cap
    /// applies unclamped here.
    fn backoff_step(&self, stalls: u32) -> SimTime {
        let base = self.policy.poll_backoff.as_nanos().max(1);
        let step = base.saturating_mul(1u64 << stalls.min(20));
        SimTime::from_nanos(step).min(self.policy.backoff_cap)
    }

    /// Best-effort CLOSE on the abandon path: the session may already be
    /// gone (e.g. the OPEN itself failed), which is fine.
    fn abandon(
        &self,
        dev: &mut SmartSsd,
        sid: Option<SessionId>,
        error: SessionError,
        wasted: SimTime,
        get_retries: u64,
    ) -> SessionFault {
        if let Some(sid) = sid {
            let _ = dev.close(sid);
        }
        self.instant(
            "session-fault",
            wasted,
            &[("get_retries", get_retries as f64)],
        );
        SessionFault {
            error,
            wasted,
            get_retries,
        }
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
        let (sid, open_done) =
            self.open_session(dev, Some((&mut *link, cmd_latency_ns)), op, SimTime::ZERO)?;
        // Polling starts at time zero (not at `open_done`): the first poll
        // comes back `Running` with the device's readiness hint and the
        // clock jumps there, exactly as the original inline loop did.
        let io = Some((link, host_cpu));
        self.collect_and_close(dev, io, sid, SimTime::ZERO, open_done)
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
            .map_err(|e| self.device_fault(dev, None, e, done, 0))
    }

    /// Polls a session from `from` until the device reports `Done` — or,
    /// if the collection clock reaches `cancel_at` first, stops polling
    /// and `CLOSE`s the session there: its slot is free from `cancel_at`
    /// on, and device batches never consumed are work genuinely saved.
    /// `SimTime::MAX` makes it a plain collection. With `io` — the host
    /// interface and the CPU that receives results — every batch crosses
    /// the link and costs the host a receive/merge, and the per-batch
    /// protocol phases are traced; without, a batch is consumed silently at
    /// its `ready_at`. `deadline` is the absolute timeout instant. A
    /// completed session is left **open**, so a scheduler can hold its slot
    /// until the simulated close; a canceled or faulted one has been closed
    /// (best-effort: a crashed device may already have dropped it).
    pub fn collect_session(
        &self,
        dev: &mut SmartSsd,
        mut io: Option<(&mut Bus, &mut CpuModel)>,
        sid: SessionId,
        from: SimTime,
        deadline: SimTime,
        cancel_at: SimTime,
    ) -> Result<Collected, SessionFault> {
        let mut c = Collection {
            t: from,
            ..Collection::default()
        };
        while c.t < cancel_at {
            if self.poll(dev, &mut io, sid, deadline, &mut c)? {
                return Ok(Collected::Done(SessionOutcome {
                    work: dev.session_work(sid).copied().unwrap_or_default(),
                    finished_at: c.t,
                    get_retries: c.get_retries,
                    rows: c.rows,
                    aggs: c.aggs,
                }));
            }
        }
        let _ = dev.close(sid);
        let get_retries = c.get_retries;
        self.instant(
            "canceled",
            cancel_at,
            &[("get_retries", get_retries as f64)],
        );
        Ok(Collected::Canceled {
            at: cancel_at,
            get_retries,
        })
    }

    /// Collects a session opened at `opened_at` to completion from `from`,
    /// under the policy's timeout, and `CLOSE`s it.
    fn collect_and_close(
        &self,
        dev: &mut SmartSsd,
        io: Option<(&mut Bus, &mut CpuModel)>,
        sid: SessionId,
        from: SimTime,
        opened_at: SimTime,
    ) -> Result<SessionOutcome, SessionFault> {
        let deadline = opened_at + self.policy.session_timeout;
        let out = match self.collect_session(dev, io, sid, from, deadline, SimTime::MAX)? {
            Collected::Done(out) => out,
            // Only a clock saturated at `SimTime::MAX` reaches the cancel
            // instant: the session's time budget is gone.
            Collected::Canceled { at, get_retries } => {
                let timeout = SessionError::Timeout { at };
                return Err(self.abandon(dev, None, timeout, at, get_retries));
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
        deadline: SimTime,
        c: &mut Collection,
    ) -> Result<bool, SessionFault> {
        match dev.get(sid, c.t) {
            Ok(GetResponse::Running { ready_at }) => {
                if c.stalls > 0 {
                    // The device's own hint did not pan out: a genuine
                    // retry, spaced by exponential backoff.
                    c.get_retries += 1;
                    if io.is_some() {
                        self.instant("get-retry", c.t, &[("stalls", c.stalls as f64)]);
                    }
                    if c.stalls > self.policy.max_get_retries {
                        let err = SessionError::Hung {
                            stalled_polls: c.stalls,
                            at: c.t,
                        };
                        return Err(self.abandon(dev, Some(sid), err, c.t, c.get_retries));
                    }
                }
                let next = ready_at.max(c.t + self.backoff_step(c.stalls));
                if io.is_some() {
                    self.phase("GET-wait", c.t, next, &[("stalls", c.stalls as f64)]);
                }
                c.t = next;
                c.stalls += 1;
            }
            Ok(GetResponse::Batch(batch)) => {
                c.stalls = 0;
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
            Err(e) => return Err(self.device_fault(dev, Some(sid), e, c.t, c.get_retries)),
        }
        if c.t > deadline {
            let err = SessionError::Timeout { at: c.t };
            return Err(self.abandon(dev, Some(sid), err, c.t, c.get_retries));
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
        let (at, retries) = (out.finished_at, out.get_retries);
        dev.close(sid)
            .map_err(|e| self.device_fault(dev, None, e, at, retries))?;
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
        self.collect_and_close(dev, None, sid, opened_at, opened_at)
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
        get_retries: u64,
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
        self.abandon(dev, sid, error, wasted, get_retries)
    }
}

/// A collection in progress: what has been gathered so far, the collection
/// clock, the consecutive stalled polls and the retries they cost.
#[derive(Default)]
struct Collection {
    rows: Vec<Tuple>,
    aggs: Option<Vec<AggState>>,
    t: SimTime,
    stalls: u32,
    get_retries: u64,
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
        assert_eq!(out.get_retries, 0, "healthy device must not stall polls");
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

    #[test]
    fn timeout_abandons_and_closes_session() {
        let (mut dev, tref) = loaded(FlashConfig::default(), DeviceConfig::default(), 50_000);
        let mut link = Bus::new("host-interface", mb_per_sec(550), 0);
        let mut cpu = CpuModel::new("host-cpu", 8, 2_260_000_000);
        let driver = SessionDriver::new(SessionPolicy {
            session_timeout: SimTime::from_nanos(1),
            ..SessionPolicy::default()
        });
        let fault = driver
            .run_linked(&mut dev, &mut link, &mut cpu, 20_000, &count_op(tref))
            .unwrap_err();
        assert!(matches!(fault.error, SessionError::Timeout { .. }));
        // The abandoned session was closed: a fresh one can open even on a
        // single-slot device.
        let (mut dev1, tref1) = loaded(
            FlashConfig::default(),
            DeviceConfig {
                max_sessions: 1,
                ..DeviceConfig::default()
            },
            1_000,
        );
        let strict = SessionDriver::new(SessionPolicy {
            session_timeout: SimTime::from_nanos(1),
            ..SessionPolicy::default()
        });
        let op = count_op(tref1);
        assert!(strict
            .run_linked(&mut dev1, &mut link, &mut cpu, 20_000, &op)
            .is_err());
        let relaxed = SessionDriver::default();
        relaxed
            .run_linked(&mut dev1, &mut link, &mut cpu, 20_000, &op)
            .unwrap();
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
        assert_eq!(fault.get_retries, 0);
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
            .collect_session(&mut dev, None, sid, SimTime::ZERO, SimTime::MAX, cancel_at)
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
            .collect_session(
                &mut dev,
                None,
                sid,
                SimTime::ZERO,
                SimTime::MAX,
                SimTime::MAX,
            )
            .unwrap();
        let Collected::Done(out) = got else {
            panic!("MAX cancel must never fire");
        };
        assert_eq!(out.aggs.as_ref().unwrap()[0].finish(), 10_000);
        driver.close(&mut dev, sid, &out).unwrap();
    }

    #[test]
    fn backoff_steps_double_and_cap() {
        let driver = SessionDriver::new(SessionPolicy {
            poll_backoff: SimTime::from_nanos(4),
            backoff_cap: SimTime::from_nanos(10),
            ..SessionPolicy::default()
        });
        assert_eq!(driver.backoff_step(0), SimTime::from_nanos(4));
        assert_eq!(driver.backoff_step(1), SimTime::from_nanos(8));
        assert_eq!(driver.backoff_step(2), SimTime::from_nanos(10)); // capped
        assert_eq!(driver.backoff_step(63), SimTime::from_nanos(10));
    }
}
