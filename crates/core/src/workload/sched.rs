//! The event-loop scheduler behind [`System::run`], [`System::run_workload`]
//! and [`System::run_serving`]: arrival sources, slot events, admission, and
//! the dispatch of one arrival onto the host or the device route.

use super::report::{Acct, BROWNED_OUT, CANCELED, DEADLINE_MISSED, REJECTED};
use super::{
    ArrivalOutcome, InterfaceMode, QueryCompletion, Workload, WorkloadItem, WorkloadOptions,
    WorkloadReport,
};
use crate::admit::{Pending, PendingSlab, WaitSet};
use crate::builder::{ConfigError, RunOptions};
use crate::serving::{ArrivalStream, TenantLoad};
use crate::shard::Fallen;
use crate::system::{Backend, RunError, RunErrorKind, System};
use smartssd_device::DeviceError;
use smartssd_exec::QueryOp;
use smartssd_query::{
    Collected, Query, QueryResult, Route, SessionDriver, SessionError, SessionFault, SessionOutcome,
};
use smartssd_sim::trace::pid;
use smartssd_sim::{EventQueue, FaultCounters, Interval, RunTrace, SimTime, TraceLevel};
use std::rc::Rc;
use std::sync::Arc;

/// Scheduler events: a device session's slot frees — either by closing a
/// completed session or because a faulted/canceled session was already
/// closed by the driver. Arrivals are not events: they are a static
/// schedule, walked by a sorted cursor and merged against this queue, so
/// the heap stays small no matter how long the stream is.
enum Ev {
    Close(smartssd_device::SessionId),
    SlotFreed,
    /// A waiting query's cancellation instant: shed it *now* (event time)
    /// instead of when its slot turn comes. The `(slot, gen)` pair
    /// addresses the pending-arrival slab; a stale generation means the
    /// query already left the wait set (admitted, shed, or canceled) and
    /// the event is a harmless no-op.
    CancelWait {
        slot: u32,
        gen: u32,
    },
}

/// Memoized catalog resolution for one workload run, keyed by query
/// pointer identity: [`Workload::burst`], [`Workload::open_stream`] and
/// [`ArrivalStream`] hand every item of one template the same `Arc<Query>`
/// (the stream interns equal templates across tenants), so a stream
/// resolves its template once instead of once per arrival —
/// [`Query::resolve`] clones and validates the whole spec tree, a dozen
/// allocations. One entry: an item with a different query simply misses
/// and re-resolves. The entry keeps its key `Arc` alive, so a pointer match
/// can never be a recycled address. The operator is shared so a dispatch
/// can hold it without borrowing the scheduler state.
type ResolveCache = Option<(Arc<Query>, Rc<QueryOp>)>;

/// What one device-route dispatch attempt produced.
enum DevAttempt {
    /// No session slot free: the query queues for the next close.
    Deferred,
    /// The session ran; its slot stays held until `out.finished_at`.
    Done(smartssd_device::SessionId, SessionOutcome),
    /// The session failed; it has already been closed.
    Fault(SessionFault),
    /// The session was canceled mid-flight at `at`; the driver closed it,
    /// so its slot is free again at `at`.
    Canceled { at: SimTime, get_retries: u64 },
}

/// Where arrivals come from: an eager, pre-materialized [`Workload`]
/// walked in `(arrival, submission index)` order, or a lazy
/// [`ArrivalStream`] whose k-way merge yields the identical sequence
/// without ever holding more than one item per tenant in memory. The
/// scheduler core is written against this enum so both entry points —
/// [`System::run_workload`] and [`System::run_serving`] — share one merge
/// loop, and the streaming path is pinned to the eager path by
/// differential tests rather than by duplicated code.
enum ArrivalSrc<'a> {
    Eager {
        items: &'a [WorkloadItem],
        order: Vec<u32>,
        cursor: usize,
    },
    Stream(ArrivalStream),
}

impl<'a> ArrivalSrc<'a> {
    /// An eager source over `items`. Arrivals are a static schedule, so
    /// they never live in the event heap: a cursor over the arrival order
    /// replaces n heap entries, keeping the heap at O(max_sessions)
    /// whatever the stream length. Sorting by (arrival, submission index)
    /// means same-instant arrivals fire in submission order.
    fn eager(items: &'a [WorkloadItem]) -> Self {
        let mut order: Vec<u32> = (0..items.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (items[i as usize].arrival, i));
        ArrivalSrc::Eager {
            items,
            order,
            cursor: 0,
        }
    }

    /// Total number of arrivals this source will yield.
    fn total(&self) -> usize {
        match self {
            ArrivalSrc::Eager { items, .. } => items.len(),
            ArrivalSrc::Stream(s) => s.total(),
        }
    }

    /// Arrival instant of the next item, if any.
    fn peek(&self) -> Option<SimTime> {
        match self {
            ArrivalSrc::Eager {
                items,
                order,
                cursor,
            } => order.get(*cursor).map(|&i| items[i as usize].arrival),
            ArrivalSrc::Stream(s) => s.peek(),
        }
    }

    /// Yields the next arrival as `(submission index, item)`.
    fn next(&mut self) -> Option<(usize, WorkloadItem)> {
        match self {
            ArrivalSrc::Eager {
                items,
                order,
                cursor,
            } => {
                let &i = order.get(*cursor)?;
                *cursor += 1;
                Some((i as usize, items[i as usize].clone()))
            }
            ArrivalSrc::Stream(s) => s.next_arrival(),
        }
    }
}

/// The run-scoped scheduler state: the options in force, the slot-event
/// queue, the admission wait set with its parked arrivals, the resolve
/// memo, and the outcome accounting.
struct Sched<'o> {
    opts: &'o WorkloadOptions,
    events: EventQueue<Ev>,
    ws: WaitSet,
    slab: PendingSlab,
    ops: ResolveCache,
    acct: Acct,
}

impl Sched<'_> {
    /// A waiting query's cancellation instant fired: shed it *now* instead
    /// of carrying the corpse until its slot turn. A stale generation (or
    /// an already-canceled entry) means the query left the wait set first
    /// — nothing to do.
    fn cancel_waiter(&mut self, slot: u32, gen: u32, now: SimTime) {
        let Some(p) = self.slab.live_mut(slot, gen) else {
            return;
        };
        if p.canceled {
            return;
        }
        p.canceled = true;
        self.ws.cancel(p.item.tenant as usize);
        self.acct.shed(CANCELED, p.index, &p.item, now);
    }
}

impl System {
    /// Runs a workload of concurrent queries, interleaving them across the
    /// system's shared resource timelines.
    ///
    /// Timing state is reset **once**, before the first arrival — not
    /// between queries — so in-flight queries contend for flash channels,
    /// the device CPU, the host interface, and host cores, and the buffer
    /// pool carries state across queries. Device-routed queries occupy one
    /// of the device's `max_sessions` slots from open to close; arrivals
    /// that find every slot taken wait, and freed slots are granted by
    /// weighted fair queueing over the [`WorkloadOptions::tenant`]
    /// registry (plain FIFO with fairness off or no tenants). A
    /// recoverable mid-run session fault degrades that one query to the
    /// host route (its latency absorbs the wasted device time); an
    /// unrecoverable fault fails that one query
    /// ([`ArrivalOutcome::Failed`]) and the workload carries on. Only
    /// infrastructure errors — an invalid configuration, a failed `CLOSE`,
    /// a scheduler invariant violation — abort the run with a
    /// [`RunError`].
    ///
    /// The simulation is deterministic: the same workload on the same
    /// system produces a bit-identical report, and each query's rows and
    /// aggregates are bit-identical to an isolated [`System::run`] of the
    /// same query.
    pub fn run_workload(
        &mut self,
        workload: &Workload,
        opts: WorkloadOptions,
    ) -> Result<WorkloadReport, RunError> {
        let registered = opts.tenants.len().max(1);
        if let Some(bad) = workload
            .items()
            .iter()
            .find(|it| it.tenant as usize >= registered)
        {
            let tenant = bad.tenant as usize;
            return Err(RunErrorKind::Config(ConfigError::UnknownTenant { tenant }).into());
        }
        let src = ArrivalSrc::eager(workload.items());
        self.run_arrivals(src, &opts)
    }

    /// Runs an open serving stream without ever materializing it: the
    /// per-tenant arrival generators are merged lazily, so memory stays
    /// O(tenants + in-flight) however many arrivals the stream carries.
    /// Equivalent to `run_workload(&compose(loads, seed), ..)` with the
    /// loads' tenants appended to `opts` — bit-for-bit, pinned by
    /// differential tests — at a fraction of the footprint.
    ///
    /// The loads' tenant specs are registered automatically (after any
    /// tenants already in `opts`, matching [`crate::serving::compose`]'s
    /// numbering when `opts` starts empty).
    pub fn run_serving(
        &mut self,
        loads: &[TenantLoad],
        seed: u64,
        mut opts: WorkloadOptions,
    ) -> Result<WorkloadReport, RunError> {
        let tenant_base = opts.tenants.len() as u32;
        let stream = ArrivalStream::with_base(loads, seed, tenant_base);
        opts.tenants.extend(stream.specs().iter().cloned());
        self.run_arrivals(ArrivalSrc::Stream(stream), &opts)
    }

    /// Schedules `src` and reports on it; a failed run's error carries the
    /// fault counters accumulated up to the failure.
    fn run_arrivals(
        &mut self,
        src: ArrivalSrc,
        opts: &WorkloadOptions,
    ) -> Result<WorkloadReport, RunError> {
        self.schedule(src, opts)
            .and_then(|acct| self.workload_report(acct, opts))
            .map_err(|e| self.with_faults(e))
    }

    /// [`System::run`]'s engine: `query` as a one-arrival workload at time
    /// zero over the linked protocol. A dead arrival comes back as its
    /// typed error rather than an outcome.
    pub(crate) fn run_single(
        &mut self,
        query: &Query,
        opts: RunOptions,
    ) -> Result<(QueryCompletion, RunTrace), RunError> {
        let item = WorkloadItem::plain(Arc::new(query.clone()), opts.route, SimTime::ZERO);
        let wopts = WorkloadOptions {
            verbosity: opts.verbosity,
            ..WorkloadOptions::default()
        };
        let src = ArrivalSrc::eager(std::slice::from_ref(&item));
        let mut acct = self.schedule(src, &wopts)?;
        if let Some(dead) = acct.dead.take() {
            return Err(dead);
        }
        // With no cancel instant, queue bound or deadline, the one arrival
        // can only have completed.
        let Some(ArrivalOutcome::Completed(done)) = acct.outcomes[0].take() else {
            return Err(RunErrorKind::SchedulerInvariant { index: 0 }.into());
        };
        let (_, trace) = self.end_run("run", done.latency, &[]);
        Ok((Arc::unwrap_or_clone(done), trace))
    }

    /// The scheduler core shared by [`System::run`] (one arrival),
    /// [`System::run_workload`] (eager) and [`System::run_serving`]
    /// (streaming): one merge loop over arrivals and slot events, with
    /// in-flight waiters parked in a generational slab and admission
    /// decided by the [`WaitSet`]'s keyed min-heap. Returns the outcome
    /// accounting; the caller closes the run and assembles its report.
    fn schedule(&mut self, mut src: ArrivalSrc, opts: &WorkloadOptions) -> Result<Acct, RunError> {
        opts.try_validate()
            .map_err(|e| RunError::from_kind(RunErrorKind::Config(e)))?;
        self.tracer.set_level(opts.verbosity);
        self.tracer.begin_run();
        self.reset_run_timing();
        self.run_faults = FaultCounters::default();
        // Drop breaker transitions a previously aborted run left behind.
        if let Backend::Smart { shard, .. } = &mut self.backend {
            shard.breaker.take_transitions();
        }
        let mut s = Sched {
            opts,
            events: EventQueue::new(),
            ws: WaitSet::new(&opts.tenants, opts.fair, opts.reference_admission),
            slab: PendingSlab::new(),
            ops: None,
            acct: Acct::new(src.total(), opts.tenants.len(), self.tracer.clone()),
        };
        loop {
            let arrive_next = match (src.peek(), s.events.peek_time()) {
                (Some(at), next) => next.is_none_or(|t| at <= t),
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if arrive_next {
                // `peek` just saw this arrival; a source that lies ends the
                // loop and surfaces as a missing outcome, not a panic.
                let Some((i, item)) = src.next() else { break };
                self.dispatch(&mut s, &item, i, item.arrival)?;
                continue;
            }
            let Some((t, ev)) = s.events.pop() else { break };
            match ev {
                Ev::Close(sid) => {
                    // Close events are only pushed for sessions opened on
                    // this system's device.
                    let Backend::Smart { shard, .. } = &mut self.backend else {
                        return Err(RunErrorKind::NotSmart.into());
                    };
                    shard.dev.close(sid).map_err(RunError::from)?;
                    self.admit_waiters(&mut s, t)?;
                }
                // A faulted or canceled session's slot: the driver already
                // closed it, so only the admission remains.
                Ev::SlotFreed => self.admit_waiters(&mut s, t)?,
                Ev::CancelWait { slot, gen } => s.cancel_waiter(slot, gen, t),
            }
        }
        debug_assert!(s.ws.is_empty(), "every freed slot admits a waiter");
        Ok(s.acct)
    }

    /// Admits waiters into a freed session slot in fair-queueing (or FIFO)
    /// order: sheds those canceled or past their start-of-service deadline
    /// (the slot stays free, so the next waiter gets its turn
    /// immediately), then dispatches until one admission actually occupies
    /// the slot — a breaker-rerouted waiter completes on the host without
    /// consuming it, so stopping after one admission would strand the rest
    /// of the queue. Tombstones of event-canceled waiters are skipped (and
    /// their slab slots released) inside [`WaitSet::pop`]; their outcomes
    /// were already recorded when the cancellation event fired.
    fn admit_waiters(&mut self, s: &mut Sched, now: SimTime) -> Result<(), RunError> {
        while let Some(slot) = s.ws.pop(|sl| {
            if s.slab.is_canceled(sl) {
                s.slab.release(sl);
                true
            } else {
                false
            }
        }) {
            // `defer` parks an arrival before queueing its slot and only
            // this loop (or a tombstone release inside `pop`) unparks one,
            // so a granted slot is occupied. Were it not, the run stops
            // here: the wait set's counters have already moved for an
            // arrival nobody can name any more.
            let Some(p) = s.slab.remove(slot) else {
                return Err(s.acct.invariant_violated());
            };
            let (j, item) = (p.index, &p.item);
            if item.cancel_at.is_some_and(|c| c <= now) {
                // The cancellation event fires no later than this pop, so
                // this arm is only reachable on an exact tie (the slot
                // freed at the cancel instant, and the close event drained
                // first) — and then `now == cancel_at`, so the shed
                // instant matches the event-driven path exactly.
                s.acct.shed(CANCELED, j, item, now);
                continue;
            }
            let deadline = s.opts.deadline_for(item.tenant as usize);
            if deadline.is_some_and(|d| now > item.arrival + d) {
                s.acct.shed(DEADLINE_MISSED, j, item, now);
                continue;
            }
            if self.dispatch(s, item, j, now)? {
                break;
            }
        }
        Ok(())
    }

    /// Dispatches one query at simulated time `now`, recording its outcome
    /// unless it was deferred on a full device (a close event will
    /// re-dispatch it). Returns whether the dispatch tied up a device
    /// session slot — a host-routed completion leaves the slot free for
    /// the next waiter. A deferred item is parked in the pending slab, so
    /// the caller's copy can be dropped — arrivals need not outlive the
    /// dispatch unless they actually wait.
    fn dispatch(
        &mut self,
        s: &mut Sched,
        item: &WorkloadItem,
        idx: usize,
        now: SimTime,
    ) -> Result<bool, RunError> {
        let tenant = item.tenant as usize;
        // Cancellation beats service: an arrival whose cancel instant has
        // already passed is abandoned before any route decision.
        if item.cancel_at.is_some_and(|c| c <= now) {
            s.acct.shed(CANCELED, idx, item, now);
            return Ok(false);
        }
        let op = match &s.ops {
            Some((key, op)) if Arc::ptr_eq(key, &item.query) => Rc::clone(op),
            _ => match item.query.resolve(&self.catalog) {
                Ok(op) => {
                    let op = Rc::new(op);
                    s.ops = Some((Arc::clone(&item.query), Rc::clone(&op)));
                    op
                }
                Err(e) => {
                    // A query that doesn't resolve fails alone; the rest of
                    // the workload is unaffected (no slot was taken).
                    let who = (&item.query.name, item.arrival);
                    s.acct.fail(idx, tenant, who, now, e.into());
                    return Ok(false);
                }
            },
        };
        let mut route = self.resolve_route(&op, &item.route);
        // Health-aware routing: while the breaker is Open (or its one
        // HalfOpen probe is taken), this arrival goes straight to the host
        // without paying for a doomed OPEN. Breaker timestamps live on the
        // monotone breaker clock so state carries across workloads.
        let stamp = self.breaker_clock + now;
        if let (Route::Device, Backend::Smart { shard, .. }) = (route, &mut self.backend) {
            if !shard.breaker.allows_device(stamp) {
                route = Route::Host;
            }
        }
        if route == Route::Host {
            let done = self.host_completion(item, &op, idx, now)?;
            s.acct.complete(tenant, done);
            return Ok(false);
        }
        let cancel_at = item.cancel_at.unwrap_or(SimTime::MAX);
        let attempt = match self.device_attempt(&op, idx, now, cancel_at, s.opts.interface)? {
            DevAttempt::Deferred => {
                self.defer(s, item, idx, now);
                return Ok(true);
            }
            DevAttempt::Canceled { at, get_retries } => {
                // Mid-flight abandonment: the driver closed the session at
                // the cancel instant (and traced it). The slot held from
                // `now` to `at` was real service, so the tenant is charged
                // for it; the breaker learns nothing (a cancellation is
                // neither success nor failure).
                self.run_faults.get_retries += get_retries;
                s.events.push(at, Ev::SlotFreed);
                s.ws.charge(tenant, at.saturating_sub(now));
                let abandoned = ArrivalOutcome::Canceled(item.shed(idx, at));
                s.acct.record(idx, tenant, abandoned);
                return Ok(true);
            }
            DevAttempt::Done(sid, out) => {
                // Hold the session slot until its simulated finish.
                s.events.push(out.finished_at, Ev::Close(sid));
                Ok(out)
            }
            DevAttempt::Fault(fault) => Err(fault),
        };
        let Backend::Smart { shard, .. } = &mut self.backend else {
            return Err(RunErrorKind::NotSmart.into());
        };
        match attempt {
            Ok(out) => {
                shard.settle_done(&out, stamp, now, &mut self.run_faults);
                // Charge the tenant's virtual time for exactly the service
                // the slot delivered.
                s.ws.charge(tenant, out.finished_at.saturating_sub(now));
                let done = self.device_completion(item, idx, out);
                s.acct.complete(tenant, done);
            }
            Err(fault) => {
                let Fallen { at, dead } =
                    shard.settle_fault(fault, stamp, now, &mut self.run_faults);
                // The driver closed the failed session on the abandon path,
                // so its slot is free again at `at` — admit the next
                // waiter, or it would be stranded and the workload could
                // never drain. Either way the tenant pays virtual time for
                // the device service the attempt consumed.
                s.events.push(at, Ev::SlotFreed);
                s.ws.charge(tenant, at.saturating_sub(now));
                match dead {
                    // Recoverable: degrade this one query to the host. The
                    // timelines keep the wasted attempt, and the fallback
                    // starts no earlier than the fault.
                    None => {
                        let done = self.host_completion(item, &op, idx, at)?;
                        s.acct.complete(tenant, done);
                    }
                    // Unrecoverable: this one query dies, with the fault
                    // spelled out; the workload carries on.
                    Some(fault) => {
                        let who = (&item.query.name, item.arrival);
                        let error = RunErrorKind::Session(fault).into();
                        s.acct.fail(idx, tenant, who, at, error);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Parks a device-routed arrival that found every session slot taken —
    /// unless admission control sheds it instead of letting the queue grow
    /// without limit.
    fn defer(&mut self, s: &mut Sched, item: &WorkloadItem, idx: usize, now: SimTime) {
        let tenant = item.tenant as usize;
        let bound = s.opts.queue_bound_for(tenant);
        if bound.is_some_and(|b| s.ws.waiting_for(tenant) >= b) {
            s.acct.shed(REJECTED, idx, item, now);
            return;
        }
        // Brownout: the wait queue is past the policy's threshold and this
        // arrival's tenant is (one of) the lightest already queueing — shed
        // it so the heavier tenants keep their tail latency through the
        // overload instead of everyone collapsing together.
        let browned_out = s.opts.brownout.is_some_and(|b| {
            s.ws.total_waiting() >= b.max_waiting
                && s.ws
                    .min_waiting_weight()
                    .is_some_and(|m| s.ws.weight_of(tenant) <= m)
        });
        if browned_out {
            s.acct.shed(BROWNED_OUT, idx, item, now);
            return;
        }
        let (slot, gen) = s.slab.insert(Pending {
            item: item.clone(),
            index: idx,
            canceled: false,
        });
        s.ws.push(slot, tenant);
        // The cancel instant (strictly future: `c <= now` was shed at
        // dispatch) becomes an event, so a waiting cancellation is
        // observed when it happens, not when the slot turn comes around.
        if let Some(c) = item.cancel_at {
            s.events.push(c, Ev::CancelWait { slot, gen });
        }
    }

    /// Runs one workload query on the host route starting at `start`,
    /// producing its completion record.
    fn host_completion(
        &mut self,
        item: &WorkloadItem,
        op: &QueryOp,
        idx: usize,
        start: SimTime,
    ) -> Result<QueryCompletion, RunError> {
        let mut result = self.run_host(op, &item.query, start)?;
        let finished_at = start + result.elapsed;
        let latency = finished_at.saturating_sub(item.arrival);
        result.elapsed = latency;
        self.query_span(idx, item.arrival, finished_at, Route::Host);
        Ok(QueryCompletion {
            index: idx,
            query: Arc::clone(&item.query.name),
            route: Route::Host,
            arrival: item.arrival,
            finished_at,
            latency,
            result,
        })
    }

    /// The completion record of a device session that delivered `out`.
    fn device_completion(
        &self,
        item: &WorkloadItem,
        idx: usize,
        out: SessionOutcome,
    ) -> QueryCompletion {
        let finalize = &item.query.finalize;
        let (agg_values, scalar) = finalize.apply(out.aggs.as_deref().unwrap_or(&[]));
        let latency = out.finished_at.saturating_sub(item.arrival);
        self.query_span(idx, item.arrival, out.finished_at, Route::Device);
        QueryCompletion {
            index: idx,
            query: Arc::clone(&item.query.name),
            route: Route::Device,
            arrival: item.arrival,
            finished_at: out.finished_at,
            latency,
            result: QueryResult {
                rows: out.rows,
                agg_values,
                scalar,
                elapsed: latency,
                work: out.work,
            },
        }
    }

    /// One device-route attempt at `now`, under the workload's interface
    /// model and the item's cancellation instant. A full device is
    /// reported as [`DevAttempt::Deferred`], not an error — the scheduler
    /// queues the query for the next free slot. An attempt that never
    /// reached a verdict (deferred or canceled) gives back the breaker's
    /// HalfOpen probe slot if it held it.
    fn device_attempt(
        &mut self,
        op: &QueryOp,
        idx: usize,
        now: SimTime,
        cancel_at: SimTime,
        interface: InterfaceMode,
    ) -> Result<DevAttempt, RunError> {
        let driver = SessionDriver::new(self.cfg.session_policy.clone())
            .with_tracer(self.tracer.clone())
            .with_lane(idx as u32);
        let cmd_latency_ns = self.cfg.interface.command_latency_ns();
        let Backend::Smart { shard, link } = &mut self.backend else {
            return Err(RunErrorKind::NotSmart.into());
        };
        let opened = match interface {
            InterfaceMode::Direct => driver.open(&mut shard.dev, op, now).map(|sid| (sid, now)),
            InterfaceMode::Linked => {
                driver.open_linked(&mut shard.dev, link, cmd_latency_ns, op, now)
            }
        };
        let (sid, open_done) = match opened {
            Ok(opened) => opened,
            Err(fault)
                if matches!(
                    fault.error,
                    SessionError::Device(DeviceError::TooManySessions)
                ) =>
            {
                shard.breaker.probe_abandoned();
                return Ok(DevAttempt::Deferred);
            }
            Err(fault) => return Ok(DevAttempt::Fault(fault)),
        };
        let deadline = open_done + self.cfg.session_policy.session_timeout;
        let collected = match interface {
            InterfaceMode::Direct => {
                driver.collect_direct_cancellable(&mut shard.dev, sid, now, deadline, cancel_at)
            }
            InterfaceMode::Linked => driver.collect_linked_cancellable(
                &mut shard.dev,
                link,
                &mut self.host_cpu,
                sid,
                now,
                deadline,
                cancel_at,
            ),
        };
        Ok(match collected {
            Ok(Collected::Done(out)) => DevAttempt::Done(sid, out),
            Ok(Collected::Canceled { at, get_retries }) => {
                shard.breaker.probe_abandoned();
                DevAttempt::Canceled { at, get_retries }
            }
            Err(fault) => DevAttempt::Fault(fault),
        })
    }

    /// Emits one per-query lifetime span on the query's session lane, so
    /// overlapped queries render as parallel lanes in Perfetto.
    fn query_span(&self, idx: usize, arrival: SimTime, finished: SimTime, route: Route) {
        self.tracer.span(
            TraceLevel::Protocol,
            pid::SESSION,
            idx as u32,
            "query",
            "session",
            Interval {
                start: arrival,
                end: finished,
            },
            &[(
                "device_route",
                if route == Route::Device { 1.0 } else { 0.0 },
            )],
        );
    }
}
