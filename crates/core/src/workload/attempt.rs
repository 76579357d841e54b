//! The device-route attempt: one query scattered over every Smart SSD of the
//! system it runs on and its partials gathered back — the single
//! implementation behind [`System::run`] on one device or an array, and
//! every arrival of a workload.
//!
//! The order of charges on the shared resources *is* the model. At the
//! dispatch instant `now`: each device's breaker gates its shard; if an
//! admitted shard's device has no free session slot the query parks, with
//! nothing sent; otherwise the `OPEN`s of the admitted shards are
//! serialized on the host link in device order; the devices execute; then
//! the host gathers in device order behind a frontier that starts at `now`
//! — a shard's result batches cross the link and cost host CPU from the
//! frontier on, a marked laggard's host copy
//! ([`HedgePolicy`](crate::HedgePolicy)) is posted at the same frontier
//! right after, a gated or faulted shard's host pass runs from `now` or from
//! its fault — and every session holds its slot to its simulated finish.
//! Under [`InterfaceMode::Direct`](super::InterfaceMode::Direct) nothing
//! crosses the link: sessions open in place and a batch is consumed the
//! moment it is ready.

use super::sched::{Ev, Sched};
use crate::shard::{Phase, ShardOutcome, FRESH};
use crate::system::{RunError, RunErrorKind, System};
use smartssd_exec::{QueryOp, WorkCounts};
use smartssd_query::{Collected, RawRun, Route, SessionDriver, SessionFault};
use smartssd_sim::SimTime;
use smartssd_storage::expr::AggState;
use smartssd_storage::Tuple;

/// One query's dispatch in flight: its fixed coordinates and the merge in
/// progress while its partials are gathered in device order.
#[derive(Default)]
pub(super) struct Attempt {
    /// The query's session lane in the trace.
    pub(super) lane: u32,
    /// The dispatch instant, and the same instant on the monotone breaker
    /// clock (so breaker state carries across runs).
    pub(super) now: SimTime,
    pub(super) stamp: SimTime,
    /// The client's cancellation instant.
    pub(super) cancel_at: SimTime,
    /// The gather frontier: the host has consumed every earlier device's
    /// partial by this instant.
    pub(super) t: SimTime,
    /// The latest instant a session slot of this attempt was held to.
    pub(super) held: SimTime,
    /// A live session whose completion estimate, in nanoseconds, exceeds
    /// this is hedged, while the attempt's retry budget allows.
    pub(super) hedge_over: Option<f64>,
    pub(super) hedges_left: u32,
    /// Some shard was offered the device route (its breaker allowed it).
    pub(super) offered: bool,
    /// Some partial came out of a device session.
    pub(super) device: bool,
    pub(super) rows: Vec<Tuple>,
    pub(super) aggs: Option<Vec<AggState>>,
    pub(super) work: WorkCounts,
}

impl Attempt {
    /// Folds one device's partial, consumed by `end`, into the merge and
    /// moves the frontier past it.
    pub(super) fn take(
        &mut self,
        rows: Vec<Tuple>,
        aggs: Option<Vec<AggState>>,
        work: &WorkCounts,
        end: SimTime,
    ) {
        self.t = self.t.max(end);
        if self.rows.is_empty() {
            self.rows = rows;
        } else {
            self.rows.extend(rows);
        }
        if let Some(parts) = aggs {
            AggState::merge_partials(&mut self.aggs, parts);
        }
        self.work.absorb(work);
    }

    /// Folds a host block-path pass into the merge as `shard`'s partial.
    pub(super) fn take_host(&mut self, shard: &mut ShardOutcome, raw: RawRun) {
        shard.route = Route::Host;
        shard.finished_at = raw.end;
        self.take(raw.rows, Some(raw.aggs), &raw.work, raw.end);
    }

    /// A session slot of this attempt frees at `at` with no `CLOSE` left
    /// to issue (the driver closed a faulted or canceled session; a failed
    /// `OPEN` never had one) — admit the next waiter then, or it would be
    /// stranded and the workload could never drain.
    fn slot_freed(&mut self, s: &mut Sched, at: SimTime) {
        s.events.push(at, Ev::SlotFreed);
        self.held = self.held.max(at);
    }
}

/// Why a device attempt ended without an answer.
pub(super) enum Stop {
    /// A device had no free session slot: the query queues for the next
    /// close.
    Full,
    /// The client's cancel instant passed mid-flight.
    Canceled(SimTime),
    /// The query died at this instant: an unrecoverable session fault, or
    /// a host pass that failed.
    Dead(SimTime, RunError),
}

impl System {
    /// One device-route attempt at `a.now` over every Smart SSD of the
    /// system — one of them, or an array: scatter, hedge marking, then a
    /// gather in device order, every session driven by one driver on the
    /// query's trace lane. `None` means every partial is in `a`. An
    /// attempt that stops early leaves sessions parked; the caller
    /// releases them.
    pub(super) fn device_attempt(
        &mut self,
        s: &mut Sched,
        a: &mut Attempt,
        ops: &[QueryOp],
    ) -> Option<Stop> {
        if self.admit_shards(a) {
            return Some(Stop::Full);
        }
        let driver = SessionDriver::default()
            .with_tracer(self.tracer.clone())
            .with_lane(a.lane);
        self.scatter(s, a, ops, &driver);
        a.hedge_over = self.hedge_threshold();
        let mut shards = ops.iter().enumerate();
        shards.find_map(|(d, op)| self.gather_shard(s, a, d, op, &driver))
    }

    /// Admission, in device order: each shard's breaker gates it (an Open
    /// one goes to the host block path, with no device traffic at all),
    /// and every admitted shard's device must have a free session slot.
    /// Returns whether one had none: the whole query then parks before any
    /// `OPEN` is sent, and every HalfOpen probe handed out is given back.
    fn admit_shards(&mut self, a: &mut Attempt) -> bool {
        let mut full = false;
        for shard in self.backend.shards_mut() {
            let admitted = shard.breaker.allows_device(a.stamp);
            let route = if admitted { Route::Device } else { Route::Host };
            let device = shard.last.device;
            shard.last = ShardOutcome {
                device,
                route,
                ..FRESH
            };
            a.offered |= admitted;
            full |= admitted && shard.dev.free_slots() == 0;
        }
        if full {
            let admitted = self.backend.shards_mut().iter_mut();
            for shard in admitted.filter(|shard| shard.last.route == Route::Device) {
                shard.breaker.probe_abandoned();
            }
        }
        full
    }

    /// Scatter, in device order: each admitted shard's `OPEN` is posted at
    /// the dispatch instant — over the shared link if it crosses it — and
    /// the device starts executing. A device's open touches only that
    /// device, so transfer-then-open per shard charges the link as all
    /// transfers then all opens would. Every live session is parked in its
    /// shard and every failed `OPEN` in its, to be judged at that shard's
    /// turn in the gather.
    fn scatter(&mut self, s: &Sched, a: &Attempt, ops: &[QueryOp], driver: &SessionDriver) {
        let cmd_latency = self.cfg.interface.command_latency_ns();
        for (shard, op) in self.backend.shards_mut().iter_mut().zip(ops) {
            if shard.last.route == Route::Host {
                continue;
            }
            let wire = s.linked.then_some((&mut self.link, cmd_latency));
            shard.phase = match driver.open_session(&mut shard.dev, wire, op, a.now) {
                Ok((sid, open_done)) => Phase::Session(sid, open_done),
                Err(fault) => Phase::Failed(fault),
            };
        }
    }

    /// Hedge marking: ranks live sessions by the device's own completion
    /// estimate (a non-destructive peek at the last queued batch, which
    /// only the session's own gather consumes); every shard whose estimate
    /// exceeds the returned threshold — the trigger factor times the median
    /// — is a laggard worth racing. This catches *several* limping shards
    /// at once, the shape a gray device's slowdown window produces. None
    /// with hedging off or below two live sessions.
    fn hedge_threshold(&self) -> Option<f64> {
        let factor = self.cfg.hedge?.factor;
        let shards = self.backend.shards().iter();
        let mut etas: Vec<SimTime> = shards
            .filter_map(|shard| match shard.phase {
                Phase::Session(sid, _) => shard.dev.session_eta(sid),
                _ => None,
            })
            .collect();
        if etas.len() < 2 {
            return None;
        }
        etas.sort_unstable();
        Some(factor * etas[etas.len() / 2].as_nanos() as f64)
    }

    /// Launches a hedge for laggard shard `d` at the gather frontier — if
    /// the attempt's retry budget is not spent. The host copy is posted at
    /// the same instant as the shard's gather, racing the device session
    /// for the same partial; both sides' resource use is charged — that is
    /// the price of hedging. A denied hedge is counted: an array that wants
    /// to hedge but can't is a tuning signal, not a silent no-op.
    fn launch_hedge(&mut self, a: &mut Attempt, d: usize, op: &QueryOp) -> Option<RawRun> {
        if a.hedges_left == 0 {
            self.run_faults.hedge_denied += 1;
            return None;
        }
        a.hedges_left -= 1;
        self.run_faults.hedges += 1;
        self.backend.shards_mut()[d].last.hedged = true;
        self.run_host(d, op, a.t).ok()
    }

    /// Gathers shard `d`'s partial at the gather frontier, from wherever
    /// its phase says it comes, and advances the frontier past it.
    fn gather_shard(
        &mut self,
        s: &mut Sched,
        a: &mut Attempt,
        d: usize,
        op: &QueryOp,
        driver: &SessionDriver,
    ) -> Option<Stop> {
        let shard = &mut self.backend.shards_mut()[d];
        let (sid, open_done) = match std::mem::replace(&mut shard.phase, Phase::Host) {
            Phase::Session(sid, open_done) => (sid, open_done),
            Phase::Failed(fault) => return self.fall_back(s, a, d, op, fault, None),
            Phase::Host => return self.host_partial(a, d, op, a.now),
        };
        let marked = a.hedge_over.is_some_and(|over| {
            let eta = shard.dev.session_eta(sid);
            eta.is_some_and(|eta| eta.as_nanos() as f64 > over)
        });
        let host = (&mut self.link, &mut self.host_cpu);
        let io = s.linked.then_some(host);
        let collected = driver.collect_session(&mut shard.dev, io, sid, a.t, a.cancel_at);
        let hedge = marked.then(|| self.launch_hedge(a, d, op)).flatten();
        let shard = &mut self.backend.shards_mut()[d];
        match collected {
            Ok(Collected::Done(out)) => {
                // Hold the session slot until its simulated finish.
                s.events.push(out.finished_at, Ev::Close(d as u32, sid));
                a.held = a.held.max(out.finished_at);
                shard.settle_done(&out, open_done, a.stamp, &mut self.run_faults);
                match hedge {
                    // The host copy won the race; answers are identical,
                    // only timing moves.
                    Some(raw) if raw.end < out.finished_at => {
                        self.run_faults.hedge_wins += 1;
                        shard.last.hedge_won = true;
                        a.take_host(&mut shard.last, raw);
                    }
                    _ => {
                        a.device = true;
                        shard.last.finished_at = out.finished_at;
                        a.take(out.rows, out.aggs, &out.work, out.finished_at);
                    }
                }
                None
            }
            // An attempt that never reached a verdict gives back the
            // breaker's HalfOpen probe slot.
            Ok(Collected::Canceled { at }) => {
                shard.breaker.probe_abandoned();
                a.slot_freed(s, at);
                Some(Stop::Canceled(at))
            }
            Err(fault) => self.fall_back(s, a, d, op, fault, hedge),
        }
    }

    /// Settles shard `d`'s faulted attempt — a failed `OPEN` or a session
    /// the driver abandoned: an unrecoverable fault kills the query; a
    /// recoverable one degrades this one shard to the host block path from
    /// the fault on, the timelines keeping the wasted attempt. A hedge
    /// already in flight doubles as the recovery run — it won by default:
    /// the recovery was running when the fault hit.
    fn fall_back(
        &mut self,
        s: &mut Sched,
        a: &mut Attempt,
        d: usize,
        op: &QueryOp,
        fault: SessionFault,
        hedge: Option<RawRun>,
    ) -> Option<Stop> {
        let shard = &mut self.backend.shards_mut()[d];
        let (at, dead) = shard.settle_fault(fault, a.stamp, a.now, &mut self.run_faults);
        a.slot_freed(s, at);
        if let Some(fault) = dead {
            return Some(Stop::Dead(at, RunErrorKind::Session(fault).into()));
        }
        shard.last.fell_back = true;
        shard.last.hedge_won = hedge.is_some();
        self.run_faults.hedge_wins += u64::from(hedge.is_some());
        match hedge {
            Some(raw) => {
                a.take_host(&mut shard.last, raw);
                None
            }
            None => self.host_partial(a, d, op, at),
        }
    }

    /// Shard `d`'s partial from a host block-path pass started at `at`. A
    /// pass that fails kills the query there.
    fn host_partial(
        &mut self,
        a: &mut Attempt,
        d: usize,
        op: &QueryOp,
        at: SimTime,
    ) -> Option<Stop> {
        match self.run_host(d, op, at) {
            Ok(raw) => {
                a.take_host(&mut self.backend.shards_mut()[d].last, raw);
                None
            }
            Err(e) => Some(Stop::Dead(at, e)),
        }
    }

    /// Ends an attempt that stopped short: `CLOSE`s every session still
    /// parked — so an aborting run never leaks sessions on not-yet-gathered
    /// devices — and gives back the HalfOpen probe slot of every shard
    /// whose attempt reached no verdict.
    pub(super) fn release_parked(&mut self) {
        for shard in self.backend.shards_mut() {
            if let Phase::Session(sid, _) = shard.phase {
                let _ = shard.dev.close(sid);
            }
            if !matches!(shard.phase, Phase::Host) {
                shard.breaker.probe_abandoned();
            }
            shard.phase = Phase::Host;
        }
    }
}
