//! Concurrent workloads: many in-flight queries on one [`System`].
//!
//! The paper's Section 5 research-opportunities list calls out
//! "considering the impact of concurrent queries" — a single
//! [`System::run`] cannot answer that, because it resets every timeline
//! before the query starts. [`System::run_workload`] keeps the machine hot
//! across a whole arrival stream instead: queries arrive on a deterministic
//! schedule, contend for the shared resource timelines (flash channels,
//! device CPU, host interface, host CPUs, buffer pool), queue for session
//! slots when the device is full, and the report carries the workload-level
//! metrics a single run cannot produce — makespan, throughput, and the
//! latency distribution.
//!
//! Two sharing effects make a concurrent stream cheaper than N isolated
//! runs:
//!
//! * **Device-side shared scans** (enable with
//!   [`DeviceConfig::shared_scans`](smartssd_device::DeviceConfig)):
//!   concurrent pushdown scans of the same table fan each flash page read
//!   out to every attached session, so N concurrent Q6 sessions cost ~1x
//!   flash traffic instead of Nx.
//! * **The host buffer pool**, which persists across the workload's
//!   queries: host-routed queries over a shared working set hit pages their
//!   predecessors faulted in. Single-query experiments reset around each
//!   run, so this effect only becomes observable under a multi-query
//!   stream.
//!
//! On top of the shared timelines sits a serving-grade admission layer
//! (see [`crate::serving`]): items may be tagged with a tenant from the
//! [`WorkloadOptions::tenant`] registry, session-slot admission is
//! weighted fair queueing with strict priority lanes (or plain FIFO with
//! [`WorkloadOptions::fair_queueing`]`(false)`), per-tenant deadlines and
//! queue bounds override the workload-level knobs, and an item's
//! [`WorkloadItem::cancel_at`] instant abandons it — mid-flight if it
//! holds a device session, whose slot frees at the cancel instant.
//!
//! Everything is simulated time: a fixed seed replays the identical
//! schedule, and answers are bit-identical to isolated runs regardless of
//! interleaving or sharing.

use crate::admit::{Pending, PendingSlab, WaitSet};
use crate::breaker::BreakerTransition;
use crate::builder::{ConfigError, RoutePolicy, RunOptions};
use crate::serving::{ArrivalStream, TenantLoad, TenantReport, TenantSpec};
use crate::shard::Fallen;
use crate::system::{Backend, RunError, RunErrorKind, System};
use smartssd_device::DeviceError;
use smartssd_exec::QueryOp;
use smartssd_query::{
    Collected, Query, QueryResult, Route, SessionDriver, SessionError, SessionFault, SessionOutcome,
};
use smartssd_sim::trace::pid;
use smartssd_sim::{
    ArrivalGen, ArrivalModel, EventQueue, FaultCounters, Interval, LatencyStats, RunTrace, SimTime,
    TraceLevel, Tracer,
};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

/// One query of a workload: what to run, how to route it, when it arrives,
/// which tenant it belongs to, and when (if ever) its client gives up.
#[derive(Debug, Clone)]
pub struct WorkloadItem {
    /// The query to run. Shared: [`Workload::burst`],
    /// [`Workload::open_stream`] and [`ArrivalStream`] hand every item of
    /// one template the same `Arc`, so a million-arrival stream stores the
    /// query template once — and the scheduler can memoize catalog
    /// resolution by pointer identity.
    pub query: Arc<Query>,
    /// Route policy for this query (natural, forced, or planner-decided).
    pub route: RoutePolicy,
    /// Simulated arrival time.
    pub arrival: SimTime,
    /// Index into the [`WorkloadOptions::tenant`] registry. Items built by
    /// the tenant-unaware constructors are tenant `0`; with an empty
    /// registry that is the single implicit tenant.
    pub tenant: u32,
    /// Client abandonment instant: past this simulated time the query is
    /// [`ArrivalOutcome::Canceled`] instead of served. A waiting query is
    /// shed when its turn comes; a query holding a device session closes
    /// it early, freeing the slot at exactly this instant. Host-routed
    /// executions are non-preemptible: cancellation only takes effect
    /// before service starts. `None` never cancels.
    pub cancel_at: Option<SimTime>,
}

// The scheduler copies an item per arrival and parks one per waiter; it is
// 56 bytes with the `RoutePolicy::Planned` payload boxed, 288 with it inline.
const _: () = assert!(std::mem::size_of::<WorkloadItem>() <= 72);

impl WorkloadItem {
    /// This item's record as shed at `at`.
    fn shed(&self, index: usize, at: SimTime) -> ShedQuery {
        ShedQuery {
            index,
            query: Arc::clone(&self.query.name),
            arrival: self.arrival,
            shed_at: at,
        }
    }

    /// An item on tenant `0` that never cancels.
    fn plain(query: Arc<Query>, route: RoutePolicy, arrival: SimTime) -> Self {
        Self {
            query,
            route,
            arrival,
            tenant: 0,
            cancel_at: None,
        }
    }
}

/// A deterministic stream of queries submitted to one [`System`].
///
/// Build one explicitly with [`Workload::push`], as a burst of simultaneous
/// arrivals with [`Workload::burst`], as a seeded open-arrival stream with
/// [`Workload::open_stream`] (or [`Workload::open_stream_with`] for a
/// non-uniform [`ArrivalModel`]), or from per-tenant loads with
/// [`crate::serving::compose`]. Arrival times need not be sorted — the
/// scheduler orders events itself — but same-instant arrivals are served in
/// item order, so the stream is reproducible either way.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    items: Vec<WorkloadItem>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one query with an explicit route policy and arrival time,
    /// on tenant `0` and without a cancellation instant.
    pub fn push(&mut self, query: Query, route: RoutePolicy, arrival: SimTime) {
        self.items
            .push(WorkloadItem::plain(Arc::new(query), route, arrival));
    }

    /// Appends one fully specified item (tenant tag, cancellation instant
    /// and all) — the escape hatch [`crate::serving::compose`] uses.
    pub fn push_item(&mut self, item: WorkloadItem) {
        self.items.push(item);
    }

    /// A workload from pre-built items in submission order — how
    /// [`crate::serving::compose`] materializes a drained
    /// [`crate::serving::ArrivalStream`].
    pub(crate) fn from_items(items: Vec<WorkloadItem>) -> Self {
        Self { items }
    }

    /// `n` copies of one query, all arriving at time zero on the natural
    /// route — the closed "N concurrent sessions" shape of the
    /// concurrent-sessions experiment. All items share one query `Arc`.
    pub fn burst(query: &Query, n: usize) -> Self {
        let shared = Arc::new(query.clone());
        let mut w = Self::new();
        for _ in 0..n {
            let item =
                WorkloadItem::plain(Arc::clone(&shared), RoutePolicy::Natural, SimTime::ZERO);
            w.items.push(item);
        }
        w
    }

    /// `n` copies of one query arriving as an open stream: inter-arrival
    /// gaps are drawn uniformly from `[0, 2 * mean_gap)` by a seeded
    /// deterministic generator (see [`ArrivalGen`]), so the mean gap is
    /// `mean_gap` and a fixed seed reproduces the schedule exactly. All
    /// items share one query `Arc`.
    pub fn open_stream(query: &Query, n: usize, mean_gap: SimTime, seed: u64) -> Self {
        Self::open_stream_with(query, n, mean_gap, seed, ArrivalModel::Uniform)
    }

    /// [`Workload::open_stream`] generalized over the arrival process:
    /// gaps are drawn from `model` (Poisson or heavy-tailed Pareto — see
    /// [`ArrivalModel`] for each model's moments). The
    /// `Uniform` model reproduces `open_stream` bit-for-bit.
    pub fn open_stream_with(
        query: &Query,
        n: usize,
        mean_gap: SimTime,
        seed: u64,
        model: ArrivalModel,
    ) -> Self {
        let shared = Arc::new(query.clone());
        let mut w = Self::new();
        for arrival in ArrivalGen::with_model(mean_gap, seed, model).arrivals(n) {
            let item = WorkloadItem::plain(Arc::clone(&shared), RoutePolicy::Natural, arrival);
            w.items.push(item);
        }
        w
    }

    /// The workload's items, in submission order.
    pub fn items(&self) -> &[WorkloadItem] {
        &self.items
    }

    /// Number of queries in the workload.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// How device-routed queries cross the host boundary during a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterfaceMode {
    /// Full protocol: the `OPEN` payload and every result batch cross the
    /// host interface, and the host pays per-batch receive/merge CPU — the
    /// same path [`System::run`] takes for device-routed queries.
    #[default]
    Linked,
    /// Device-only timing: sessions open directly on the device and batch
    /// consumption is instantaneous at `ready_at`. This isolates
    /// *device-internal* contention (flash path + embedded CPU), the shape
    /// the concurrent-sessions experiment measures.
    Direct,
}

/// Brownout shedding policy ([`WorkloadOptions::brownout`]): when the
/// device-session wait queue backs up past `max_waiting` — sustained
/// overload, or a degraded fleet serving far below capacity — a deferred
/// arrival from (one of) the *lightest* tenants already queueing is shed
/// at arrival instead of joining the queue. Weighted fair queueing alone
/// keeps shares proportional but lets every tenant's latency collapse
/// together; brownout instead sacrifices the lowest-weight (batch) work
/// first so high-weight (interactive) tenants keep their tail latency
/// through the incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutPolicy {
    /// Live waiting queries (across all tenants) at or above which the
    /// shedding rule engages. Must be at least 1.
    pub max_waiting: usize,
}

/// Per-workload knobs for [`System::run_workload`], built fluently:
///
/// ```
/// use smartssd::serving::TenantSpec;
/// use smartssd::{InterfaceMode, SimTime, WorkloadOptions};
///
/// let opts = WorkloadOptions::new()
///     .interface(InterfaceMode::Direct)
///     .queue_bound(8)
///     .deadline(SimTime::from_millis(100))
///     .tenant(TenantSpec::new("interactive").weight(4))
///     .tenant(TenantSpec::new("batch").lane(1));
/// assert!(opts.try_validate().is_ok());
/// ```
///
/// [`WorkloadOptions::try_validate`] checks the configuration eagerly
/// (mirroring [`SystemBuilder::try_build`](crate::SystemBuilder::try_build));
/// [`System::run_workload`] validates again itself, surfacing the same
/// [`ConfigError`] as [`RunErrorKind::Config`], so a bad registry can never
/// start a run.
#[derive(Debug, Clone)]
pub struct WorkloadOptions {
    interface: InterfaceMode,
    verbosity: TraceLevel,
    queue_bound: Option<usize>,
    deadline: Option<SimTime>,
    tenants: Vec<TenantSpec>,
    fair: bool,
    reference_admission: bool,
    brownout: Option<BrownoutPolicy>,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        Self {
            interface: InterfaceMode::default(),
            verbosity: TraceLevel::default(),
            queue_bound: None,
            deadline: None,
            tenants: Vec::new(),
            // Weighted fair queueing is the default once tenants exist;
            // with one (implicit) tenant it degenerates to exact FIFO.
            fair: true,
            reference_admission: false,
            brownout: None,
        }
    }
}

impl WorkloadOptions {
    /// Default options: linked interface, no admission control, no
    /// tenants, fair queueing enabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interface model for device-routed queries.
    pub fn interface(mut self, interface: InterfaceMode) -> Self {
        self.interface = interface;
        self
    }

    /// Trace verbosity for the workload. Ignored without an attached sink.
    pub fn verbosity(mut self, verbosity: TraceLevel) -> Self {
        self.verbosity = verbosity;
        self
    }

    /// Admission control: bound on the number of queries waiting for a
    /// device session slot. An arrival that finds the device full and the
    /// wait queue at this bound is shed with [`ArrivalOutcome::Rejected`]
    /// instead of queueing without limit. With tenants registered the
    /// bound applies to each tenant's own wait queue; a tenant's
    /// [`TenantSpec::queue_bound`] overrides it. Unset waits unbounded.
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound);
        self
    }

    /// Start-of-service deadline, measured from each query's arrival: a
    /// queued query whose turn comes after `arrival + deadline` is shed
    /// with [`ArrivalOutcome::DeadlineMissed`] instead of starting
    /// hopelessly late. A tenant's [`TenantSpec::deadline`] overrides it.
    /// Unset never sheds on time.
    pub fn deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Registers one tenant; items reference tenants by registration
    /// order ([`WorkloadItem::tenant`]). With an empty registry the whole
    /// workload runs as one implicit default tenant.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Toggles weighted fair queueing over device session slots. On (the
    /// default), waiting queries are admitted by priority lane, then by
    /// per-tenant virtual time weighted by [`TenantSpec::weight`]. Off,
    /// admission is global FIFO across all tenants — the pre-serving
    /// behavior, kept for apples-to-apples isolation experiments.
    pub fn fair_queueing(mut self, fair: bool) -> Self {
        self.fair = fair;
        self
    }

    /// The registered tenants, in registration order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Enables brownout shedding: see [`BrownoutPolicy`]. Off by default,
    /// so overload handling is unchanged unless asked for.
    pub fn brownout(mut self, policy: BrownoutPolicy) -> Self {
        self.brownout = Some(policy);
        self
    }

    /// Selects the linear-scan reference admission engine instead of the
    /// keyed min-heap. The two are grant-for-grant equivalent (pinned by
    /// differential proptests); the reference exists as the executable
    /// specification and for differential testing, not for production use.
    #[doc(hidden)]
    pub fn reference_admission(mut self, on: bool) -> Self {
        self.reference_admission = on;
        self
    }

    /// Validates the configuration without running anything, mirroring
    /// [`SystemBuilder::try_build`](crate::SystemBuilder::try_build):
    /// every tenant needs a nonzero weight (a zero-weight tenant could
    /// never be scheduled) and a unique name (reports are keyed by name).
    /// Tenants are checked in registration order, weight before name, and
    /// the first offender is reported; a duplicate is blamed on the later
    /// of the two entries. One pass over the registry (every run validates
    /// again, so this is on the serving path): names go through a set of
    /// borrowed `&str`s, not a compare against every earlier tenant.
    pub fn try_validate(&self) -> Result<&Self, ConfigError> {
        let mut names = HashSet::with_capacity(self.tenants.len());
        for (i, t) in self.tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(ConfigError::ZeroTenantWeight { tenant: i });
            }
            if !names.insert(t.name.as_str()) {
                return Err(ConfigError::DuplicateTenant { tenant: i });
            }
        }
        if let Some(b) = self.brownout {
            if b.max_waiting == 0 {
                return Err(ConfigError::ZeroBrownoutThreshold);
            }
        }
        Ok(self)
    }

    /// The deadline that applies to `tenant`: its own, else the
    /// workload-level default.
    fn deadline_for(&self, tenant: usize) -> Option<SimTime> {
        self.tenants
            .get(tenant)
            .and_then(|t| t.deadline)
            .or(self.deadline)
    }

    /// The queue bound that applies to `tenant`: its own, else the
    /// workload-level default.
    fn queue_bound_for(&self, tenant: usize) -> Option<usize> {
        self.tenants
            .get(tenant)
            .and_then(|t| t.queue_bound)
            .or(self.queue_bound)
    }
}

/// One finished query of a workload.
#[derive(Debug, Clone)]
pub struct QueryCompletion {
    /// Index of the query in the workload's submission order.
    pub index: usize,
    /// Query name (shared with the query template).
    pub query: Arc<str>,
    /// Where the query actually ran (after any dirty-rule override or
    /// mid-run fallback).
    pub route: Route,
    /// When the query arrived.
    pub arrival: SimTime,
    /// When its last result was consumed.
    pub finished_at: SimTime,
    /// `finished_at - arrival`: queueing delay included.
    pub latency: SimTime,
    /// Rows, aggregates, and work receipt. `result.elapsed` equals
    /// `latency` (a workload query's cost is measured from its arrival).
    pub result: QueryResult,
}

/// A query shed before completion — by admission control or the deadline
/// rule (before any work was done on its behalf), or by its
/// [`WorkloadItem::cancel_at`] instant (possibly mid-flight, in which case
/// the device time up to `shed_at` was genuinely burned).
#[derive(Debug, Clone)]
pub struct ShedQuery {
    /// Index of the query in the workload's submission order.
    pub index: usize,
    /// Query name (shared with the query template).
    pub query: Arc<str>,
    /// When the query arrived.
    pub arrival: SimTime,
    /// When the scheduler shed it (at arrival for a rejection; when its
    /// turn came for a missed deadline or a waiting cancellation; at the
    /// cancel instant for a mid-flight cancellation).
    pub shed_at: SimTime,
}

/// A query that died on an unrecoverable fault: its session (if any) was
/// closed, its slot freed, and the workload carried on — the failure is an
/// outcome, not a run abort.
#[derive(Debug, Clone)]
pub struct FailedQuery {
    /// Index of the query in the workload's submission order.
    pub index: usize,
    /// Query name (shared with the query template).
    pub query: Arc<str>,
    /// When the query arrived.
    pub arrival: SimTime,
    /// When the failure was established (the fault's absolute instant for
    /// a session fault; the dispatch instant for a resolution error).
    pub failed_at: SimTime,
    /// Human-readable failure reason.
    pub reason: String,
}

/// Terminal state of one workload arrival — the single exhaustive outcome
/// channel. Under graceful degradation not every arrival completes, but
/// every arrival gets exactly one outcome, so `completed + rejected +
/// deadline-missed + canceled + failed` always equals the number of
/// arrivals.
#[derive(Debug, Clone)]
pub enum ArrivalOutcome {
    /// The query ran to completion (on either route, including a mid-run
    /// fallback to the host). Its answer is bit-identical to an isolated
    /// fault-free run of the same query. The record is shared (via `Arc`)
    /// with [`WorkloadReport::completions`], so a million-query report
    /// stores each completion once, not twice.
    Completed(Arc<QueryCompletion>),
    /// Shed at arrival: the device was full and the wait queue was at its
    /// bound ([`WorkloadOptions::queue_bound`] or the tenant's override).
    Rejected(ShedQuery),
    /// Shed when its turn came: it had waited past its deadline
    /// ([`WorkloadOptions::deadline`] or the tenant's override) before
    /// service could begin.
    DeadlineMissed(ShedQuery),
    /// Abandoned at its [`WorkloadItem::cancel_at`] instant — before
    /// service if it was still waiting, or mid-flight with its device
    /// session closed early and the slot freed at the cancel instant.
    Canceled(ShedQuery),
    /// Died on an unrecoverable fault (wire corruption, validation
    /// failure, or a resolution error); the rest of the workload ran on.
    Failed(FailedQuery),
}

impl ArrivalOutcome {
    /// The completion record, when the query completed.
    pub fn completion(&self) -> Option<&QueryCompletion> {
        match self {
            ArrivalOutcome::Completed(c) => Some(c.as_ref()),
            _ => None,
        }
    }

    /// Submission index of the query this outcome belongs to.
    pub fn index(&self) -> usize {
        match self {
            ArrivalOutcome::Completed(c) => c.index,
            ArrivalOutcome::Rejected(s)
            | ArrivalOutcome::DeadlineMissed(s)
            | ArrivalOutcome::Canceled(s) => s.index,
            ArrivalOutcome::Failed(e) => e.index,
        }
    }
}

/// Everything measured about one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-query completions, in submission order. Under admission control
    /// this is the completed subset; see [`WorkloadReport::outcomes`] for
    /// every arrival's fate. Records are shared with `outcomes` (an `Arc`
    /// each), so holding both costs one copy of the data.
    pub completions: Vec<Arc<QueryCompletion>>,
    /// One terminal outcome per arrival, in submission order.
    pub outcomes: Vec<ArrivalOutcome>,
    /// Arrivals shed because the wait queue was at its bound.
    pub rejected: u64,
    /// Arrivals shed because they waited past their deadline.
    pub deadline_missed: u64,
    /// Arrivals abandoned at their cancellation instant.
    pub canceled: u64,
    /// Arrivals that died on an unrecoverable fault.
    pub failed: u64,
    /// Per-tenant accounting, in [`WorkloadOptions::tenant`] registration
    /// order. Empty when no tenants were registered.
    pub tenants: Vec<TenantReport>,
    /// Circuit-breaker state changes during the workload, timestamped on
    /// the workload's own timeline. Empty when the breaker is disabled.
    pub breaker_transitions: Vec<BreakerTransition>,
    /// Simulated time from zero until the last completion.
    pub makespan: SimTime,
    /// Completed queries per second of simulated time
    /// (`completions.len() / makespan`); shed queries don't count.
    pub throughput_qps: f64,
    /// Latency distribution over the completions.
    pub latency: LatencyStats,
    /// Flash page reads issued during the workload (Smart SSD and SSD
    /// systems; zero on HDD).
    pub flash_reads: u64,
    /// Page reads served by device-side scan sharing instead of flash
    /// (zero unless `shared_scans` is enabled).
    pub shared_hits: u64,
    /// Host buffer-pool hits across the workload.
    pub pool_hits: u64,
    /// Host buffer-pool misses across the workload.
    pub pool_misses: u64,
    /// Faults absorbed along the way (all zero on a clean run).
    pub faults: FaultCounters,
    /// The workload's trace, as produced by the sink attached at build
    /// time — one lane per in-flight query under the session track.
    pub trace: RunTrace,
}

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

/// Outcome tallies: [`Acct`] keeps one for the whole run and one per
/// registered tenant.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) completed: u64,
    rejected: u64,
    deadline_missed: u64,
    canceled: u64,
    pub(crate) failed: u64,
    pub(crate) latencies: Vec<SimTime>,
}

impl Tally {
    fn count(&mut self, o: &ArrivalOutcome) {
        match o {
            ArrivalOutcome::Completed(c) => {
                self.completed += 1;
                self.latencies.push(c.latency);
            }
            ArrivalOutcome::Rejected(_) => self.rejected += 1,
            ArrivalOutcome::DeadlineMissed(_) => self.deadline_missed += 1,
            ArrivalOutcome::Canceled(_) => self.canceled += 1,
            ArrivalOutcome::Failed(_) => self.failed += 1,
        }
    }

    fn arrivals(&self) -> u64 {
        self.completed + self.rejected + self.deadline_missed + self.canceled + self.failed
    }
}

/// One-pass report accounting: every outcome is recorded exactly once, at
/// the moment it is decided, updating the run's tally, the makespan, and
/// (when a registry exists) the owning tenant's tally — so report assembly
/// never re-walks the outcome array. The aggregates are order-independent
/// (sums, max, and selection percentiles over the full sample), so
/// recording at decision time is bit-identical to end-of-run passes. The
/// fleet's closed-loop stream records through the same accounting.
pub(crate) struct Acct {
    pub(crate) outcomes: Vec<Option<ArrivalOutcome>>,
    recorded: usize,
    pub(crate) total: Tally,
    pub(crate) makespan: SimTime,
    /// Empty when no tenant registry exists (no per-tenant reports).
    tenants: Vec<Tally>,
    /// The typed error behind the most recent [`ArrivalOutcome::Failed`]
    /// (whose public record carries only its text): [`System::run`]'s
    /// contract returns it instead of an outcome.
    dead: Option<RunError>,
    /// Every shed or failed arrival leaves one protocol instant on its
    /// session lane.
    tracer: Tracer,
}

impl Acct {
    pub(crate) fn new(total: usize, registered: usize, tracer: Tracer) -> Self {
        Self {
            outcomes: (0..total).map(|_| None).collect(),
            recorded: 0,
            total: Tally::default(),
            makespan: SimTime::ZERO,
            tenants: (0..registered).map(|_| Tally::default()).collect(),
            dead: None,
            tracer,
        }
    }

    fn record(&mut self, index: usize, tenant: usize, o: ArrivalOutcome) {
        if let ArrivalOutcome::Completed(c) = &o {
            self.makespan = self.makespan.max(c.finished_at);
        }
        self.total.count(&o);
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.count(&o);
        }
        debug_assert!(self.outcomes[index].is_none(), "one outcome per arrival");
        self.outcomes[index] = Some(o);
        self.recorded += 1;
    }

    /// The scheduler-bug error, naming the earliest arrival still without
    /// an outcome.
    fn invariant_violated(&self) -> RunError {
        let index = self.outcomes.iter().position(|o| o.is_none()).unwrap_or(0);
        RunErrorKind::SchedulerInvariant { index }.into()
    }

    /// Records a completion.
    pub(crate) fn complete(&mut self, tenant: usize, done: QueryCompletion) {
        self.record(
            done.index,
            tenant,
            ArrivalOutcome::Completed(Arc::new(done)),
        );
    }

    /// Emits one protocol instant on query `index`'s session lane.
    fn instant(&self, index: usize, name: &str, at: SimTime) {
        self.tracer.instant(
            TraceLevel::Protocol,
            pid::SESSION,
            index as u32,
            name,
            "session",
            at,
            &[],
        );
    }

    /// Sheds `item` at `at` without service: one protocol instant named
    /// `why` on the query's session lane, one outcome (`wrap` picks which
    /// of the three shed outcomes it is).
    fn shed(&mut self, (why, wrap): Shed, index: usize, item: &WorkloadItem, at: SimTime) {
        self.instant(index, why, at);
        self.record(index, item.tenant as usize, wrap(item.shed(index, at)));
    }

    /// Records a query that died on `error` at `at`: the public outcome
    /// carries the error's text, the typed error stays retrievable.
    pub(crate) fn fail(
        &mut self,
        index: usize,
        tenant: usize,
        (query, arrival): (&Arc<str>, SimTime),
        at: SimTime,
        error: RunError,
    ) {
        self.instant(index, "failed", at);
        let failed = FailedQuery {
            index,
            query: Arc::clone(query),
            arrival,
            failed_at: at,
            reason: error.to_string(),
        };
        self.record(index, tenant, ArrivalOutcome::Failed(failed));
        self.dead = Some(error);
    }
}

/// Why an arrival was shed, as a `(trace instant, outcome)` pair.
type Shed = (&'static str, fn(ShedQuery) -> ArrivalOutcome);
const CANCELED: Shed = ("canceled", ArrivalOutcome::Canceled);
const DEADLINE_MISSED: Shed = ("deadline-missed", ArrivalOutcome::DeadlineMissed);
const REJECTED: Shed = ("rejected", ArrivalOutcome::Rejected);
const BROWNED_OUT: Shed = ("browned-out", ArrivalOutcome::Rejected);

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

    /// Closes a scheduled workload and assembles its report. The
    /// per-outcome statistics were gathered incrementally as each outcome
    /// was decided, so assembly never re-walks the outcome array.
    fn workload_report(
        &mut self,
        acct: Acct,
        opts: &WorkloadOptions,
    ) -> Result<WorkloadReport, RunError> {
        let n = acct.outcomes.len();
        // Every arrival must have exactly one outcome by now; a hole is a
        // scheduler bug, reported as a typed error (with the fault counters
        // absorbed by the caller) instead of a panic.
        if acct.recorded != n {
            return Err(acct.invariant_violated());
        }
        // `Option<ArrivalOutcome>` and `ArrivalOutcome` share a layout
        // (niche optimization), so this unwrap-collect rewrites the vector
        // in place — no second outcome array is ever allocated or copied.
        // The expect cannot fire: `record` fills one hole per count, and
        // the count was just checked against the length.
        let outcomes: Vec<ArrivalOutcome> = acct
            .outcomes
            .into_iter()
            .map(|o| o.expect("recorded count checked above"))
            .collect();
        let tenants: Vec<TenantReport> = opts
            .tenants
            .iter()
            .zip(acct.tenants)
            .map(|(s, a)| TenantReport {
                name: s.name.clone(),
                arrivals: a.arrivals(),
                completed: a.completed,
                rejected: a.rejected,
                deadline_missed: a.deadline_missed,
                canceled: a.canceled,
                failed: a.failed,
                latency: LatencyStats::from_sample(&a.latencies),
            })
            .collect();
        let mut completions: Vec<Arc<QueryCompletion>> =
            Vec::with_capacity(acct.total.completed as usize);
        completions.extend(outcomes.iter().filter_map(|o| match o {
            ArrivalOutcome::Completed(c) => Some(Arc::clone(c)),
            _ => None,
        }));
        let makespan = acct.makespan;
        let throughput_qps = if makespan > SimTime::ZERO {
            completions.len() as f64 / makespan.as_secs_f64()
        } else {
            0.0
        };
        let (flash_reads, shared_hits) = match &self.backend {
            Backend::Hdd(_) => (0, 0),
            Backend::Ssd(p) => (p.ssd.stats().reads, 0),
            Backend::Smart { shard, .. } => {
                (shard.dev.flash.stats().reads, shard.dev.shared_hits())
            }
        };
        let (breaker_transitions, trace) =
            self.end_run("workload", makespan, &[("queries", n as f64)]);
        Ok(WorkloadReport {
            makespan,
            throughput_qps,
            latency: LatencyStats::from_sample(&acct.total.latencies),
            flash_reads,
            shared_hits,
            pool_hits: self.pool().hits(),
            pool_misses: self.pool().misses(),
            faults: self.current_faults(),
            completions,
            outcomes,
            rejected: acct.total.rejected,
            deadline_missed: acct.total.deadline_missed,
            canceled: acct.total.canceled,
            failed: acct.total.failed,
            tenants,
            breaker_transitions,
            trace,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RunOptions, SystemBuilder};
    use crate::config::DeviceKind;
    use proptest::prelude::*;
    use smartssd_exec::spec::{GroupAggSpec, ScanAggSpec};
    use smartssd_query::{Finalize, OpTemplate};
    use smartssd_storage::expr::{AggSpec, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout};

    fn build_sys(kind: DeviceKind, f: impl FnOnce(SystemBuilder) -> SystemBuilder) -> System {
        let schema =
            smartssd_storage::Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)]);
        let mut sys = f(SystemBuilder::new(kind, Layout::Pax)).build();
        sys.load_table_rows(
            "t",
            &schema,
            (0..20_000).map(|k| vec![Datum::I32(k), Datum::I64(k as i64)]),
        )
        .unwrap();
        sys.finish_load();
        sys
    }

    fn sum_query() -> Query {
        Query {
            name: "sum".into(),
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
    fn workload_answers_match_isolated_runs() {
        let q = sum_query();
        let mut iso = build_sys(DeviceKind::SmartSsd, |b| b);
        let expected = iso.run(&q, RunOptions::default()).unwrap().result;
        for interface in [InterfaceMode::Linked, InterfaceMode::Direct] {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| b);
            let rep = sys
                .run_workload(
                    &Workload::burst(&q, 4),
                    WorkloadOptions::new().interface(interface),
                )
                .unwrap();
            assert_eq!(rep.completions.len(), 4);
            for c in &rep.completions {
                assert_eq!(c.route, Route::Device);
                assert_eq!(c.result.agg_values, expected.agg_values, "{interface:?}");
                assert_eq!(c.result.scalar, expected.scalar, "{interface:?}");
            }
        }
    }

    #[test]
    fn full_device_defers_until_slots_free() {
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
            b.tweak(|c| c.smart.max_sessions = 2)
        });
        let rep = sys
            .run_workload(&Workload::burst(&q, 6), WorkloadOptions::default())
            .unwrap();
        assert_eq!(rep.completions.len(), 6);
        // With only two slots the burst runs in waves: the last completions
        // start strictly after the first finish.
        let first_done = rep.completions.iter().map(|c| c.finished_at).min().unwrap();
        assert!(rep.makespan > first_done);
        assert!(rep.latency.max > rep.latency.min);
        assert!(rep.throughput_qps > 0.0);
    }

    #[test]
    fn host_routed_workload_completes_on_any_device() {
        let q = sum_query();
        for kind in [DeviceKind::Hdd, DeviceKind::Ssd, DeviceKind::SmartSsd] {
            let mut sys = build_sys(kind, |b| b);
            let mut w = Workload::new();
            for i in 0..3 {
                w.push(
                    q.clone(),
                    RoutePolicy::Force(Route::Host),
                    SimTime::from_nanos(i * 1_000),
                );
            }
            let rep = sys.run_workload(&w, WorkloadOptions::default()).unwrap();
            assert_eq!(rep.completions.len(), 3, "{kind:?}");
            for c in &rep.completions {
                assert_eq!(c.route, Route::Host, "{kind:?}");
                assert!(c.finished_at > c.arrival, "{kind:?}");
                assert_eq!(c.latency, c.finished_at.saturating_sub(c.arrival));
            }
            // Later arrivals queue behind earlier ones on the shared host
            // path, so completions are ordered too.
            assert!(rep
                .completions
                .windows(2)
                .all(|w| w[0].finished_at <= w[1].finished_at));
        }
    }

    #[test]
    fn workload_report_is_deterministic_for_a_fixed_seed() {
        let q = sum_query();
        let run = || {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| b.shared_scans(true));
            let w = Workload::open_stream(&q, 8, SimTime::from_nanos(200_000), 7);
            sys.run_workload(&w, WorkloadOptions::default()).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.flash_reads, b.flash_reads);
        assert_eq!(a.shared_hits, b.shared_hits);
        let fa: Vec<SimTime> = a.completions.iter().map(|c| c.finished_at).collect();
        let fb: Vec<SimTime> = b.completions.iter().map(|c| c.finished_at).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn shared_scans_reduce_flash_reads_in_a_burst() {
        let q = sum_query();
        let report = |shared: bool| {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
                b.shared_scans(shared).tweak(|c| c.smart.max_sessions = 8)
            });
            sys.run_workload(
                &Workload::burst(&q, 8),
                WorkloadOptions::new().interface(InterfaceMode::Direct),
            )
            .unwrap()
        };
        let (off, on) = (report(false), report(true));
        assert_eq!(off.shared_hits, 0);
        assert!(on.shared_hits > 0);
        assert!(on.flash_reads < off.flash_reads);
        assert!(on.makespan <= off.makespan);
        // Answers are unchanged by sharing.
        for (a, b) in off.completions.iter().zip(on.completions.iter()) {
            assert_eq!(a.result.agg_values, b.result.agg_values);
        }
    }

    #[test]
    fn faulted_session_frees_its_slot_for_deferred_waiters() {
        // One slot, three simultaneous arrivals: the first holds the slot,
        // deferring the other two. The second is a high-cardinality group-by
        // that blows its device memory grant — a recoverable fault that
        // degrades to the host. Its freed slot must still admit the third
        // waiter, or the workload can never drain.
        let group = Query {
            name: "group".into(),
            op: OpTemplate::GroupAgg {
                table: "t".into(),
                spec: GroupAggSpec {
                    pred: Pred::Const(true),
                    group_by: vec![0],
                    aggs: vec![AggSpec::sum(Expr::col(1))],
                },
            },
            finalize: Finalize::Rows,
        };
        let q = sum_query();
        for interface in [InterfaceMode::Linked, InterfaceMode::Direct] {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
                b.tweak(|c| {
                    c.smart.max_sessions = 1;
                    c.smart.session_memory_bytes = 4 * 1024;
                })
            });
            let mut w = Workload::new();
            w.push(q.clone(), RoutePolicy::Natural, SimTime::ZERO);
            w.push(group.clone(), RoutePolicy::Natural, SimTime::ZERO);
            w.push(q.clone(), RoutePolicy::Natural, SimTime::ZERO);
            let rep = sys
                .run_workload(&w, WorkloadOptions::new().interface(interface))
                .unwrap();
            assert_eq!(rep.completions.len(), 3, "{interface:?}");
            assert_eq!(rep.completions[0].route, Route::Device, "{interface:?}");
            assert_eq!(rep.completions[1].route, Route::Host, "{interface:?}");
            assert_eq!(rep.completions[2].route, Route::Device, "{interface:?}");
            assert_eq!(rep.faults.fallbacks, 1, "{interface:?}");
            // Wasted time is the duration the failed attempt burned (it
            // started only after the first query's close), not the absolute
            // simulated timestamp of the fault. Direct mode detects the
            // grant failure eagerly at OPEN, burning no modeled time; the
            // linked OPEN transfer always costs some.
            if interface == InterfaceMode::Linked {
                assert!(rep.faults.wasted_ns > 0);
            }
            assert!(
                SimTime::from_nanos(rep.faults.wasted_ns) < rep.completions[0].finished_at,
                "{interface:?}: wasted_ns must be a duration, not a timestamp"
            );
        }
    }

    #[test]
    fn breaker_sheds_device_route_under_sustained_crashes() {
        use crate::breaker::{BreakerPolicy, BreakerState};
        let q = sum_query();
        let run = |enabled: bool| {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
                let b = b.crash_faults(u32::MAX, SimTime::from_micros(5_000));
                if enabled {
                    b.breaker(BreakerPolicy::enabled())
                } else {
                    b
                }
            });
            sys.run_workload(&Workload::burst(&q, 6), WorkloadOptions::default())
                .unwrap()
        };
        let (off, on) = (run(false), run(true));
        // Without health tracking every arrival pays for a doomed OPEN —
        // and the extra pokes both storm the recovering firmware and crash
        // it again once it comes back.
        assert_eq!(off.faults.fallbacks, 6);
        assert!(off.breaker_transitions.is_empty());
        assert!(off.faults.device_crashes >= 1);
        // With the breaker, the threshold-th failure trips it and the rest
        // route straight to the host with no device traffic at all.
        assert_eq!(on.faults.fallbacks, 3);
        assert_eq!(on.breaker_transitions.len(), 1);
        assert_eq!(on.breaker_transitions[0].to, BreakerState::Open);
        assert!(on.faults.device_crashes >= 1);
        assert!(on.faults.device_crashes <= off.faults.device_crashes);
        // A burst drains through the host-side bottleneck either way, so
        // the breaker can't beat the makespan here — but it must never be
        // worse, and it wastes strictly less time on doomed probes.
        assert!(on.makespan <= off.makespan);
        assert!(on.faults.wasted_ns < off.faults.wasted_ns);
        // Every query still completes on the host with identical answers:
        // the breaker changes routing and timing, never results.
        assert_eq!(on.completions.len(), 6);
        for (a, b) in off.completions.iter().zip(on.completions.iter()) {
            assert_eq!(a.result.agg_values, b.result.agg_values);
            assert_eq!(a.route, Route::Host);
            assert_eq!(b.route, Route::Host);
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow_arrivals() {
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
            b.tweak(|c| c.smart.max_sessions = 1)
        });
        let rep = sys
            .run_workload(
                &Workload::burst(&q, 6),
                WorkloadOptions::new().queue_bound(1),
            )
            .unwrap();
        // One slot plus one queue place: the other four arrivals are shed.
        assert_eq!(rep.completions.len(), 2);
        assert_eq!(rep.rejected, 4);
        assert_eq!(rep.deadline_missed, 0);
        // Conservation: every arrival has exactly one outcome.
        assert_eq!(rep.outcomes.len(), 6);
        assert_eq!(
            rep.completions.len() as u64 + rep.rejected + rep.deadline_missed,
            6
        );
        for (i, o) in rep.outcomes.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
        assert!(matches!(rep.outcomes[2], ArrivalOutcome::Rejected(_)));
        // Throughput counts only completed queries.
        let expect = 2.0 / rep.makespan.as_secs_f64();
        assert!((rep.throughput_qps - expect).abs() < 1e-9);
    }

    #[test]
    fn deadline_sheds_stale_waiters_when_their_turn_comes() {
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
            b.tweak(|c| c.smart.max_sessions = 1)
        });
        let rep = sys
            .run_workload(
                &Workload::burst(&q, 3),
                WorkloadOptions::new().deadline(SimTime::from_nanos(1)),
            )
            .unwrap();
        // The first query holds the only slot well past the 1 ns deadline,
        // so both waiters are shed the moment its close frees the slot.
        assert_eq!(rep.completions.len(), 1);
        assert_eq!(rep.rejected, 0);
        assert_eq!(rep.deadline_missed, 2);
        let shed_at: Vec<SimTime> = rep
            .outcomes
            .iter()
            .filter_map(|o| match o {
                ArrivalOutcome::DeadlineMissed(s) => Some(s.shed_at),
                _ => None,
            })
            .collect();
        assert_eq!(shed_at, vec![rep.completions[0].finished_at; 2]);
    }

    #[test]
    fn empty_workload_yields_zero_report() {
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| b);
        let rep = sys
            .run_workload(&Workload::new(), WorkloadOptions::default())
            .unwrap();
        assert!(rep.completions.is_empty());
        assert_eq!(rep.makespan, SimTime::ZERO);
        assert_eq!(rep.throughput_qps, 0.0);
        assert_eq!(rep.latency, LatencyStats::default());
        assert!(rep.tenants.is_empty());
    }

    #[test]
    fn open_stream_arrivals_are_seed_reproducible() {
        let q = sum_query();
        let a = Workload::open_stream(&q, 16, SimTime::from_nanos(50_000), 3);
        let b = Workload::open_stream(&q, 16, SimTime::from_nanos(50_000), 3);
        let c = Workload::open_stream(&q, 16, SimTime::from_nanos(50_000), 4);
        let at = |w: &Workload| w.items().iter().map(|i| i.arrival).collect::<Vec<_>>();
        assert_eq!(at(&a), at(&b));
        assert_ne!(at(&a), at(&c));
        assert_eq!(a.len(), 16);
        assert!(!a.is_empty());
        // The generalized constructor reproduces the uniform stream
        // bit-for-bit.
        let d = Workload::open_stream_with(
            &q,
            16,
            SimTime::from_nanos(50_000),
            3,
            ArrivalModel::Uniform,
        );
        assert_eq!(at(&a), at(&d));
    }

    #[test]
    fn invalid_tenant_registries_fail_validation_before_any_work() {
        use crate::serving::TenantSpec;
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| b);
        let zero = WorkloadOptions::new().tenant(TenantSpec::new("a").weight(0));
        assert_eq!(
            zero.try_validate().unwrap_err(),
            ConfigError::ZeroTenantWeight { tenant: 0 }
        );
        let dup = WorkloadOptions::new()
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("a"));
        assert_eq!(
            dup.try_validate().unwrap_err(),
            ConfigError::DuplicateTenant { tenant: 1 }
        );
        let err = sys.run_workload(&Workload::burst(&q, 1), zero).unwrap_err();
        assert!(matches!(
            err.kind(),
            RunErrorKind::Config(ConfigError::ZeroTenantWeight { tenant: 0 })
        ));
        // An item tagged with an unregistered tenant is a config error too.
        let mut w = Workload::new();
        w.push_item(WorkloadItem {
            query: Arc::new(q),
            route: RoutePolicy::Natural,
            arrival: SimTime::ZERO,
            tenant: 3,
            cancel_at: None,
        });
        let err = sys
            .run_workload(&w, WorkloadOptions::default())
            .unwrap_err();
        assert!(matches!(
            err.kind(),
            RunErrorKind::Config(ConfigError::UnknownTenant { tenant: 3 })
        ));
    }

    /// `try_validate`'s duplicate rule as it was before the name set: each
    /// tenant against every earlier one. Kept as the oracle.
    fn validate_quadratic(tenants: &[TenantSpec]) -> Result<(), ConfigError> {
        for (i, t) in tenants.iter().enumerate() {
            if t.weight == 0 {
                return Err(ConfigError::ZeroTenantWeight { tenant: i });
            }
            if tenants[..i].iter().any(|e| e.name == t.name) {
                return Err(ConfigError::DuplicateTenant { tenant: i });
            }
        }
        Ok(())
    }

    #[test]
    fn a_late_duplicate_in_a_huge_registry_is_found_in_one_pass() {
        // The quadratic rule needs ~5e9 string compares here — a hang in a
        // debug build; one pass takes milliseconds.
        let n = 100_000;
        let mut opts = WorkloadOptions::new();
        for i in 0..n - 1 {
            opts = opts.tenant(TenantSpec::new(format!("t{i}")));
        }
        let opts = opts.tenant(TenantSpec::new("t0"));
        assert_eq!(
            opts.try_validate().unwrap_err(),
            ConfigError::DuplicateTenant { tenant: n - 1 }
        );
    }

    #[test]
    fn interleaved_templates_each_run_their_own_plan() {
        // Three templates round-robin: the one-entry resolve cache misses
        // on every dispatch, which must cost time only.
        let queries: Vec<Arc<Query>> = (0..3)
            .map(|i| {
                let mut q = sum_query();
                q.name = format!("sum<{i}").into();
                let OpTemplate::ScanAgg { spec, .. } = &mut q.op else {
                    unreachable!("sum_query is a ScanAgg");
                };
                spec.pred = Pred::Cmp(
                    smartssd_storage::expr::CmpOp::Lt,
                    Expr::col(0),
                    Expr::lit(1_000 * (i + 1)),
                );
                Arc::new(q)
            })
            .collect();
        let expected: Vec<QueryResult> = queries
            .iter()
            .map(|q| {
                let mut iso = build_sys(DeviceKind::SmartSsd, |b| b);
                iso.run(q, RunOptions::default()).unwrap().result
            })
            .collect();
        let mut w = Workload::new();
        for round in 0..3u64 {
            for (i, q) in queries.iter().enumerate() {
                w.push_item(WorkloadItem::plain(
                    Arc::clone(q),
                    RoutePolicy::Natural,
                    SimTime::from_nanos(round * 1_000 + i as u64),
                ));
            }
        }
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| b);
        let rep = sys.run_workload(&w, WorkloadOptions::default()).unwrap();
        assert_eq!(rep.completions.len(), 3 * queries.len());
        for c in &rep.completions {
            let want = &expected[c.index % queries.len()];
            assert_eq!(c.query, queries[c.index % queries.len()].name);
            assert_eq!(c.result.agg_values, want.agg_values);
            assert_eq!(c.result.scalar, want.scalar);
        }
    }

    #[test]
    fn wfq_shares_slots_by_weight_under_backlog() {
        use crate::serving::TenantSpec;
        let q = sum_query();
        // One slot, two tenants with a 3:1 weight ratio, both with deep
        // simultaneous backlogs. Count whose queries occupy the first
        // completions: the heavy tenant should finish ~3x as many among
        // any prefix once both are waiting.
        let run = |fair: bool| {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
                b.tweak(|c| c.smart.max_sessions = 1)
            });
            let mut w = Workload::new();
            let shared = Arc::new(q.clone());
            for i in 0..16 {
                // Interleave submission so FIFO alternates tenants.
                w.push_item(WorkloadItem {
                    query: Arc::clone(&shared),
                    route: RoutePolicy::Natural,
                    arrival: SimTime::ZERO,
                    tenant: (i % 2) as u32,
                    cancel_at: None,
                });
            }
            sys.run_workload(
                &w,
                WorkloadOptions::new()
                    .tenant(TenantSpec::new("heavy").weight(3))
                    .tenant(TenantSpec::new("light").weight(1))
                    .fair_queueing(fair),
            )
            .unwrap()
        };
        let rep = run(true);
        assert_eq!(rep.completions.len(), 16);
        assert_eq!(rep.tenants.len(), 2);
        assert_eq!(rep.tenants[0].arrivals, 8);
        assert_eq!(rep.tenants[0].completed, 8);
        // Among the first 8 completions (by finish time), the weight-3
        // tenant should hold a clear majority.
        let mut done: Vec<_> = rep.completions.iter().collect();
        done.sort_by_key(|c| c.finished_at);
        let heavy_early = done[..8]
            .iter()
            .filter(|c| rep.outcomes[c.index].index() == c.index && c.index % 2 == 0)
            .count();
        assert!(
            heavy_early >= 5,
            "weight-3 tenant got only {heavy_early}/8 early slots"
        );
        // The light tenant is never starved: all of its queries complete.
        assert_eq!(rep.tenants[1].completed, 8);
        // FIFO mode alternates strictly, so the heavy tenant gets no edge.
        let fifo = run(false);
        let mut fifo_done: Vec<_> = fifo.completions.iter().collect();
        fifo_done.sort_by_key(|c| c.finished_at);
        let heavy_fifo = fifo_done[..8].iter().filter(|c| c.index % 2 == 0).count();
        assert_eq!(heavy_fifo, 4);
    }

    #[test]
    fn priority_lane_preempts_waiting_lower_lanes() {
        use crate::serving::TenantSpec;
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
            b.tweak(|c| c.smart.max_sessions = 1)
        });
        let shared = Arc::new(q.clone());
        let mut w = Workload::new();
        // Four lane-1 arrivals first (submission order), then one lane-0
        // arrival a hair later — while the first lane-1 query holds the
        // slot. The lane-0 waiter must be admitted next despite arriving
        // last and having the smaller weight.
        for _ in 0..4 {
            w.push_item(WorkloadItem {
                query: Arc::clone(&shared),
                route: RoutePolicy::Natural,
                arrival: SimTime::ZERO,
                tenant: 1,
                cancel_at: None,
            });
        }
        w.push_item(WorkloadItem {
            query: Arc::clone(&shared),
            route: RoutePolicy::Natural,
            arrival: SimTime::from_nanos(1),
            tenant: 0,
            cancel_at: None,
        });
        let rep = sys
            .run_workload(
                &w,
                WorkloadOptions::new()
                    .tenant(TenantSpec::new("urgent").lane(0))
                    .tenant(TenantSpec::new("batch").lane(1).weight(100)),
            )
            .unwrap();
        assert_eq!(rep.completions.len(), 5);
        let urgent = rep
            .completions
            .iter()
            .find(|c| c.index == 4)
            .expect("urgent query completed");
        let mut finishes: Vec<_> = rep.completions.iter().map(|c| c.finished_at).collect();
        finishes.sort();
        // The urgent query finishes second: right after the slot-holder,
        // ahead of every already-waiting batch query.
        assert_eq!(urgent.finished_at, finishes[1]);
    }

    #[test]
    fn cancellation_sheds_waiters_and_midflight_sessions() {
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
            b.tweak(|c| c.smart.max_sessions = 1)
        });
        // Item 0 runs and is canceled mid-flight (cancel well before its
        // natural finish); item 1 waits and is canceled before its turn;
        // item 2 completes normally in the slot cancellation freed.
        let shared = Arc::new(q.clone());
        let mut w = Workload::new();
        w.push_item(WorkloadItem {
            query: Arc::clone(&shared),
            route: RoutePolicy::Natural,
            arrival: SimTime::ZERO,
            tenant: 0,
            cancel_at: Some(SimTime::from_nanos(10)),
        });
        w.push_item(WorkloadItem {
            query: Arc::clone(&shared),
            route: RoutePolicy::Natural,
            arrival: SimTime::ZERO,
            tenant: 0,
            cancel_at: Some(SimTime::from_nanos(5)),
        });
        w.push_item(WorkloadItem {
            query: Arc::clone(&shared),
            route: RoutePolicy::Natural,
            arrival: SimTime::ZERO,
            tenant: 0,
            cancel_at: None,
        });
        let rep = sys.run_workload(&w, WorkloadOptions::default()).unwrap();
        assert_eq!(rep.canceled, 2);
        assert_eq!(rep.completions.len(), 1);
        assert_eq!(rep.completions[0].index, 2);
        // The mid-flight cancel freed its slot at exactly the cancel
        // instant, so the survivor started then — far earlier than the
        // canceled query's natural finish.
        match &rep.outcomes[0] {
            ArrivalOutcome::Canceled(s) => assert_eq!(s.shed_at, SimTime::from_nanos(10)),
            o => panic!("expected canceled, got {o:?}"),
        }
        // No session leaked: cancellation closed the device session.
        assert_eq!(sys.open_device_sessions(), 0);
        // Conservation still holds with cancellations in the mix.
        assert_eq!(rep.completions.len() as u64 + rep.canceled, 3);
    }

    #[test]
    fn unresolvable_query_fails_alone_without_aborting() {
        let bad = Query {
            name: "missing".into(),
            op: OpTemplate::ScanAgg {
                table: "no_such_table".into(),
                spec: ScanAggSpec {
                    pred: Pred::Const(true),
                    aggs: vec![AggSpec::sum(Expr::col(1))],
                },
            },
            finalize: Finalize::AggRow,
        };
        let q = sum_query();
        let mut sys = build_sys(DeviceKind::SmartSsd, |b| b);
        let mut w = Workload::new();
        w.push(q.clone(), RoutePolicy::Natural, SimTime::ZERO);
        w.push(bad, RoutePolicy::Natural, SimTime::ZERO);
        w.push(q, RoutePolicy::Natural, SimTime::ZERO);
        let rep = sys.run_workload(&w, WorkloadOptions::default()).unwrap();
        assert_eq!(rep.failed, 1);
        assert_eq!(rep.completions.len(), 2);
        match &rep.outcomes[1] {
            ArrivalOutcome::Failed(f) => {
                assert_eq!(f.index, 1);
                assert!(f.reason.contains("no_such_table"), "reason: {}", f.reason);
            }
            o => panic!("expected failed, got {o:?}"),
        }
    }

    #[test]
    fn brownout_sheds_the_lightest_tenant_first_under_overload() {
        use crate::serving::TenantSpec;
        let q = sum_query();
        let tenants = |o: WorkloadOptions| {
            o.tenant(TenantSpec::new("interactive").weight(4))
                .tenant(TenantSpec::new("batch"))
        };
        // One slot; arrivals in index order: the slot-holder, then a mix
        // of heavy (tenant 0) and light (tenant 1) arrivals that back the
        // wait queue up past the brownout threshold.
        let mk = || {
            let shared = Arc::new(q.clone());
            let mut w = Workload::new();
            for tenant in [0, 0, 1, 1, 0, 1] {
                w.push_item(WorkloadItem {
                    query: Arc::clone(&shared),
                    route: RoutePolicy::Natural,
                    arrival: SimTime::ZERO,
                    tenant,
                    cancel_at: None,
                });
            }
            w
        };
        let run = |opts: WorkloadOptions| {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
                b.tweak(|c| c.smart.max_sessions = 1)
            });
            sys.run_workload(&mk(), tenants(opts)).unwrap()
        };
        // Without the policy everyone eventually runs — latency collapses
        // together, but nothing is shed.
        let off = run(WorkloadOptions::new());
        assert_eq!(off.completions.len(), 6);
        assert_eq!(off.rejected, 0);
        // With brownout at two waiters: index 0 holds the slot, 1 and 2
        // queue; 3 (light) arrives with the queue full and a light tenant
        // already waiting, so it is shed; 4 (heavy) outweighs the lightest
        // waiter and joins; 5 (light) is shed again.
        let on = run(WorkloadOptions::new().brownout(BrownoutPolicy { max_waiting: 2 }));
        assert_eq!(on.rejected, 2);
        assert_eq!(on.completions.len(), 4);
        assert!(matches!(on.outcomes[3], ArrivalOutcome::Rejected(_)));
        assert!(matches!(on.outcomes[5], ArrivalOutcome::Rejected(_)));
        // Only batch work was sacrificed: the interactive tenant completes
        // every arrival, and its answers are untouched.
        assert_eq!(on.tenants[0].name, "interactive");
        assert_eq!(on.tenants[0].arrivals, 3);
        assert_eq!(on.tenants[0].completed, 3);
        assert_eq!(on.tenants[0].rejected, 0);
        assert_eq!(on.tenants[1].rejected, 2);
        assert_eq!(on.tenants[1].completed, 1);
        for (a, b) in off.completions.iter().zip(on.completions.iter()) {
            assert_eq!(a.result.agg_values, b.result.agg_values);
        }
        // Shedding the queue's overflow must not slow anyone down.
        assert!(on.makespan <= off.makespan);
        // A zero threshold would shed everything unconditionally; the
        // validator refuses it before any work starts.
        assert_eq!(
            WorkloadOptions::new()
                .brownout(BrownoutPolicy { max_waiting: 0 })
                .try_validate()
                .unwrap_err(),
            ConfigError::ZeroBrownoutThreshold
        );
    }

    #[test]
    fn scripted_crashes_trip_the_breaker_without_any_randomness() {
        use crate::breaker::{BreakerPolicy, BreakerState};
        use smartssd_sim::FaultPlan;
        let q = sum_query();
        // Three crashes scripted at t=0 and zero random fault rates: every
        // failure the breaker sees is on the plan's schedule, so the whole
        // incident replays bit-exactly.
        let plan = FaultPlan::new()
            .crash_at(0, SimTime::ZERO)
            .crash_at(0, SimTime::ZERO)
            .crash_at(0, SimTime::ZERO);
        let run = |enabled: bool| {
            let mut sys = build_sys(DeviceKind::SmartSsd, |b| {
                let b = b.fault_plan(&plan);
                if enabled {
                    b.breaker(BreakerPolicy::enabled())
                } else {
                    b
                }
            });
            sys.run_workload(&Workload::burst(&q, 6), WorkloadOptions::default())
                .unwrap()
        };
        let (off, on) = (run(false), run(true));
        // Unprotected, every arrival probes the sick device and falls back.
        assert_eq!(off.faults.fallbacks, 6);
        assert!(off.breaker_transitions.is_empty());
        assert!(off.faults.device_crashes >= 1);
        // The breaker trips on the threshold-th scripted failure and the
        // remaining arrivals route straight to the host.
        assert_eq!(on.faults.fallbacks, 3);
        assert_eq!(on.breaker_transitions.len(), 1);
        assert_eq!(on.breaker_transitions[0].to, BreakerState::Open);
        assert!(on.faults.device_crashes >= 1);
        assert!(on.faults.wasted_ns < off.faults.wasted_ns);
        assert_eq!(on.completions.len(), 6);
        for (a, b) in off.completions.iter().zip(on.completions.iter()) {
            assert_eq!(a.result.agg_values, b.result.agg_values);
            assert_eq!(b.route, Route::Host);
        }
        // Determinism: a second protected run reproduces the first to the
        // nanosecond, breaker transitions included.
        let again = run(true);
        assert_eq!(again.makespan, on.makespan);
        assert_eq!(again.breaker_transitions.len(), 1);
        assert_eq!(
            again.breaker_transitions[0].at,
            on.breaker_transitions[0].at
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `try_validate` returns, for every registry, exactly what the
        /// quadratic rule returned: same `Ok`/`Err`, same variant, same
        /// tenant index. Names come from a six-letter alphabet so
        /// duplicates are common; weights include zero.
        #[test]
        fn try_validate_matches_the_quadratic_rule(
            registry in proptest::collection::vec((0usize..6, 0u64..3), 0..24),
        ) {
            let tenants: Vec<TenantSpec> = registry
                .iter()
                .map(|&(name, weight)| TenantSpec::new(["a", "b", "c", "d", "e", "f"][name]).weight(weight))
                .collect();
            let opts = tenants
                .iter()
                .cloned()
                .fold(WorkloadOptions::new(), WorkloadOptions::tenant);
            prop_assert_eq!(
                opts.try_validate().map(|_| ()),
                validate_quadratic(&tenants)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Differential chaos invariant: no scripted fault plan — firmware
        /// slowdowns, crashes, and ECC bursts in any combination, with or
        /// without the breaker — may change a completed answer, lose an
        /// arrival, or perturb a replay. Faults buy latency, never bits.
        #[test]
        fn fault_plans_change_timing_never_answers(
            factor in 1u32..24,
            from_ms in 0u64..8,
            len_ms in 1u64..8,
            crash_ms in proptest::option::of(0u64..8),
            ecc in any::<bool>(),
            protected in any::<bool>(),
            n in 2usize..6,
            gap_us in 0u64..400,
        ) {
            use crate::breaker::BreakerPolicy;
            use smartssd_sim::FaultPlan;

            let q = sum_query();
            let expected = {
                let mut clean = build_sys(DeviceKind::SmartSsd, |b| b);
                clean.run(&q, RunOptions::default()).unwrap().result.agg_values
            };

            let ms = |v: u64| SimTime::from_nanos(v * 1_000_000);
            let mut plan =
                FaultPlan::new().slowdown(0, factor, ms(from_ms), ms(from_ms + len_ms));
            if let Some(c) = crash_ms {
                plan = plan.crash_at(0, ms(c));
            }
            if ecc {
                plan = plan.ecc_burst(0, 0..u64::MAX, ms(from_ms), ms(from_ms + len_ms));
            }

            let mut w = Workload::new();
            for i in 0..n {
                w.push(
                    q.clone(),
                    RoutePolicy::Natural,
                    SimTime::from_nanos(i as u64 * gap_us * 1_000),
                );
            }
            let run = || {
                let plan = plan.clone();
                let mut sys = build_sys(DeviceKind::SmartSsd, move |b| {
                    let b = b.fault_plan(&plan);
                    if protected {
                        b.breaker(BreakerPolicy::enabled())
                    } else {
                        b
                    }
                });
                sys.run_workload(&w, WorkloadOptions::default()).unwrap()
            };
            let rep = run();

            // Every arrival completes (faults reroute, they never drop), and
            // every completed answer matches the clean system bit for bit.
            prop_assert_eq!(rep.completions.len(), n);
            for c in &rep.completions {
                prop_assert_eq!(&c.result.agg_values, &expected);
            }

            // Replay is bit-exact: same makespan, same fault accounting,
            // same per-query finish instants and routes.
            let again = run();
            prop_assert_eq!(again.makespan, rep.makespan);
            prop_assert_eq!(again.faults, rep.faults);
            for (a, b) in rep.completions.iter().zip(again.completions.iter()) {
                prop_assert_eq!(a.finished_at, b.finished_at);
                prop_assert_eq!(a.route, b.route);
            }
        }
    }
}
