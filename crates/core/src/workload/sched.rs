//! The event-loop scheduler behind [`System::run`], [`System::run_workload`]
//! and [`System::run_serving`]: slot events, admission, and the dispatch of
//! one arrival onto the host or the device route.
//!
//! Arrivals reach the loop through one cursor: any iterator of
//! `(submission index, item)` in `(arrival, submission index)` order, held
//! in a `Peekable`. A materialized [`Workload`] is its item slice walked
//! through a sorted index, a serving stream is [`ArrivalStream`]'s lazy
//! k-way merge (one staged item per tenant, never the whole schedule), and a
//! single query is `once(..)`.

use super::attempt::{Attempt, AttemptRules, Stop};
use super::report::{Acct, BROWNED_OUT, CANCELED, DEADLINE_MISSED, REJECTED};
use super::{
    ArrivalOutcome, QueryCompletion, Workload, WorkloadItem, WorkloadOptions, WorkloadReport,
};
use crate::admit::{Pending, PendingSlab, WaitSet};
use crate::builder::{ConfigError, RunOptions};
use crate::serving::{ArrivalStream, TenantLoad};
use crate::system::{RunError, RunErrorKind, System, Transitions};
use smartssd_device::SessionId;
use smartssd_exec::QueryOp;
use smartssd_query::{Query, QueryResult, Route};
use smartssd_sim::trace::pid;
use smartssd_sim::{EventQueue, FaultCounters, Interval, RunTrace, SimTime, TraceLevel, Tracer};
use std::iter::{from_fn, once, Peekable};
use std::rc::Rc;
use std::sync::Arc;

/// Scheduler events: a device session's slot frees — either by closing a
/// completed session or because a faulted/canceled session was already
/// closed by the driver. Arrivals are not events: they are a static
/// schedule, walked by a sorted cursor and merged against this queue, so
/// the heap stays small no matter how long the stream is.
pub(super) enum Ev {
    /// `CLOSE` this session on this device.
    Close(u32, SessionId),
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
/// can never be a recycled address. One operator per device (each holds
/// its own extent of the table), shared so a dispatch can hold them without
/// borrowing the scheduler state.
type ResolveCache = Option<(Arc<Query>, Rc<[QueryOp]>)>;

/// The run-scoped scheduler state: the options in force, the slot-event
/// queue, the admission wait set with its parked arrivals, the resolve
/// memo, and the outcome accounting.
pub(super) struct Sched<'o> {
    opts: &'o WorkloadOptions,
    pub(super) rules: AttemptRules,
    pub(super) events: EventQueue<Ev>,
    ws: WaitSet,
    slab: PendingSlab,
    ops: ResolveCache,
    pub(super) acct: Acct,
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
        // Arrivals are a static schedule, so they never live in the event
        // heap: an index sorted by (arrival, submission index) — same-instant
        // arrivals fire in submission order — keeps the heap at
        // O(max_sessions) whatever the workload's length.
        let items = workload.items();
        let mut order: Vec<u32> = (0..items.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (items[i as usize].arrival, i));
        let arrivals = order
            .into_iter()
            .map(|i| (i as usize, items[i as usize].clone()));
        self.run_arrivals(arrivals, items.len(), &opts)
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
        let mut stream = ArrivalStream::with_base(loads, seed, tenant_base);
        opts.tenants.extend(stream.specs().iter().cloned());
        let total = stream.total();
        self.run_arrivals(from_fn(|| stream.next_arrival()), total, &opts)
    }

    /// Schedules `total` arrivals and reports on them; a failed run's
    /// error carries the fault counters accumulated up to the failure.
    fn run_arrivals(
        &mut self,
        arrivals: impl Iterator<Item = (usize, WorkloadItem)>,
        total: usize,
        opts: &WorkloadOptions,
    ) -> Result<WorkloadReport, RunError> {
        self.schedule(arrivals, total, opts, AttemptRules::of(opts.interface))
            .and_then(|acct| self.workload_report(acct, opts))
            .map_err(|e| self.with_faults(e))
    }

    /// The engine of [`System::run`] and of a fleet query: `query` as a
    /// one-arrival workload at time zero, its device attempts under
    /// `rules`. A dead arrival comes back as its typed error rather than
    /// an outcome; a completed one with the run's per-device breaker
    /// transitions and trace.
    pub(crate) fn run_single(
        &mut self,
        query: &Query,
        opts: RunOptions,
        rules: AttemptRules,
    ) -> Result<(QueryCompletion, Transitions, RunTrace), RunError> {
        let item = WorkloadItem::plain(Arc::new(query.clone()), opts.route, SimTime::ZERO);
        let wopts = WorkloadOptions::new().verbosity(opts.verbosity);
        let mut acct = self.schedule(once((0, item)), 1, &wopts, rules)?;
        if let Some(dead) = acct.dead.take() {
            return Err(dead);
        }
        // With no cancel instant, queue bound or deadline, the one arrival
        // can only have completed.
        let Some(ArrivalOutcome::Completed(done)) = acct.outcomes[0].take() else {
            return Err(RunErrorKind::SchedulerInvariant { index: 0 }.into());
        };
        let (transitions, trace) = self.end_run("run", done.latency, &[]);
        Ok((Arc::unwrap_or_clone(done), transitions, trace))
    }

    /// The scheduler core shared by [`System::run`] and a fleet query (one
    /// arrival), [`System::run_workload`] (eager) and
    /// [`System::run_serving`] (streaming): one merge loop over `total`
    /// arrivals, yielded in `(arrival, submission index)` order, and slot
    /// events, with in-flight waiters parked in a generational slab and
    /// admission decided by the [`WaitSet`]'s keyed min-heap. Returns the
    /// outcome accounting; the caller closes the run and assembles its
    /// report. A run that aborts closes every session it still holds open.
    fn schedule(
        &mut self,
        arrivals: impl Iterator<Item = (usize, WorkloadItem)>,
        total: usize,
        opts: &WorkloadOptions,
        rules: AttemptRules,
    ) -> Result<Acct, RunError> {
        opts.try_validate()
            .map_err(|e| RunError::from_kind(RunErrorKind::Config(e)))?;
        self.tracer.set_level(opts.verbosity);
        self.tracer.begin_run();
        self.reset_run_timing();
        self.run_faults = FaultCounters::default();
        // Drop breaker transitions a previously aborted run left behind.
        for shard in self.backend.shards_mut() {
            shard.breaker.take_transitions();
        }
        let mut s = Sched {
            opts,
            rules,
            events: EventQueue::new(),
            ws: WaitSet::new(&opts.tenants, opts.fair),
            slab: PendingSlab::new(),
            ops: None,
            acct: Acct::new(total, opts.tenants.len(), self.tracer.clone()),
        };
        let run = self.event_loop(&mut s, arrivals.peekable());
        if run.is_err() {
            while let Some((_, ev)) = s.events.pop() {
                if let Ev::Close(d, sid) = ev {
                    let _ = self.backend.shards_mut()[d as usize].dev.close(sid);
                }
            }
        }
        debug_assert!(
            run.is_err() || s.ws.is_empty(),
            "every freed slot admits a waiter"
        );
        run.map(|()| s.acct)
    }

    /// Merges arrivals and slot events in time order until both run dry;
    /// an arrival goes before an event of the same instant.
    fn event_loop(
        &mut self,
        s: &mut Sched,
        mut arrivals: Peekable<impl Iterator<Item = (usize, WorkloadItem)>>,
    ) -> Result<(), RunError> {
        loop {
            let event_at = s.events.peek_time();
            let due = |(_, it): &(usize, WorkloadItem)| event_at.is_none_or(|t| it.arrival <= t);
            if let Some((i, item)) = arrivals.next_if(due) {
                self.dispatch(s, &item, i, item.arrival)?;
                continue;
            }
            let Some((t, ev)) = s.events.pop() else {
                return Ok(());
            };
            match ev {
                Ev::Close(d, sid) => {
                    // Close events are only pushed for sessions opened on
                    // this system's devices.
                    let dev = &mut self.backend.shards_mut()[d as usize].dev;
                    dev.close(sid).map_err(RunError::from)?;
                    self.admit_waiters(s, t)?;
                }
                // A faulted or canceled session's slot: the driver already
                // closed it, so only the admission remains.
                Ev::SlotFreed => self.admit_waiters(s, t)?,
                Ev::CancelWait { slot, gen } => s.cancel_waiter(slot, gen, t),
            }
        }
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
        let ops = match &s.ops {
            Some((key, ops)) if Arc::ptr_eq(key, &item.query) => Rc::clone(ops),
            _ => match self
                .catalogs
                .iter()
                .map(|c| item.query.resolve(c))
                .collect()
            {
                Ok(ops) => {
                    s.ops = Some((Arc::clone(&item.query), Rc::clone(&ops)));
                    ops
                }
                Err(e) => {
                    // A query that doesn't resolve fails alone; the rest of
                    // the workload is unaffected (no slot was taken).
                    let who = (&item.query.name, item.arrival);
                    s.acct.fail(idx, tenant, who, now, RunError::from(e));
                    return Ok(false);
                }
            },
        };
        let mut a = Attempt {
            lane: idx as u32,
            now,
            stamp: self.breaker_clock + now,
            cancel_at: item.cancel_at.unwrap_or(SimTime::MAX),
            t: now,
            held: now,
            hedges_left: s.rules.hedge.map_or(0, |(_, budget)| budget),
            ..Attempt::default()
        };
        // The route is one decision for the whole query, made on the first
        // device's extents (the only ones on a single-device system).
        if self.resolve_route(&ops[0], &item.route) == Route::Host {
            for (d, op) in ops.iter().enumerate() {
                let raw = self.run_host(d, op, now)?;
                a.take(raw.rows, Some(raw.aggs), &raw.work, raw.end);
            }
            self.complete(s, item, idx, a);
            return Ok(false);
        }
        let stop = self.device_attempt(s, &mut a, &ops);
        if !matches!(stop, Ok(None)) {
            self.release_parked();
        }
        let stop = stop?;
        // With every breaker open the query completes on the host without
        // touching a session slot; otherwise the tenant pays virtual time
        // for exactly the device service the attempt consumed, however it
        // ended — unless it never started.
        let offered = a.offered;
        if offered && !matches!(stop, Some(Stop::Full)) {
            s.ws.charge(tenant, a.held.saturating_sub(now));
        }
        match stop {
            None => self.complete(s, item, idx, a),
            Some(Stop::Full) => self.defer(s, item, idx, now),
            // Mid-flight abandonment: the driver closed the session at the
            // cancel instant (and traced it). The slot held from `now` to
            // `at` was real service; the breaker learns nothing (a
            // cancellation is neither success nor failure).
            Some(Stop::Canceled(at)) => {
                let abandoned = ArrivalOutcome::Canceled(item.shed(idx, at));
                s.acct.record(idx, tenant, abandoned);
            }
            // This one query dies, with the fault spelled out; the workload
            // carries on.
            Some(Stop::Dead(at, fault)) => {
                let who = (&item.query.name, item.arrival);
                let error = RunErrorKind::Session(fault).into();
                s.acct.fail(idx, tenant, who, at, error);
            }
        }
        Ok(offered)
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

    /// Records the completion of a query whose every partial is gathered.
    /// Finalization happens once, over the merged states, so
    /// non-distributive aggregates like AVG stay exact across devices.
    fn complete(&self, s: &mut Sched, item: &WorkloadItem, idx: usize, a: Attempt) {
        let route = if a.device { Route::Device } else { Route::Host };
        let finalize = &item.query.finalize;
        let (agg_values, scalar) = finalize.apply(a.aggs.as_deref().unwrap_or(&[]));
        let latency = a.t.saturating_sub(item.arrival);
        // One lifetime span per query on its own session lane, so overlapped
        // queries render as parallel lanes in Perfetto.
        let args = [("device_route", if a.device { 1.0 } else { 0.0 })];
        session_span(
            &self.tracer,
            idx as u32,
            "query",
            (item.arrival, a.t),
            &args,
        );
        let done = QueryCompletion {
            index: idx,
            query: Arc::clone(&item.query.name),
            route,
            arrival: item.arrival,
            finished_at: a.t,
            latency,
            result: QueryResult {
                rows: a.rows,
                agg_values,
                scalar,
                elapsed: latency,
                work: a.work,
            },
        };
        s.acct.complete(item.tenant as usize, done);
    }
}

/// Emits one protocol-phase span `[start, end)` on a query's session lane.
fn session_span(
    tracer: &Tracer,
    lane: u32,
    name: &str,
    (start, end): (SimTime, SimTime),
    args: &[(&str, f64)],
) {
    let iv = Interval { start, end };
    tracer.span(
        TraceLevel::Protocol,
        pid::SESSION,
        lane,
        name,
        "session",
        iv,
        args,
    );
}
