//! Concurrent workloads: many in-flight queries on one
//! [`System`](crate::System).
//!
//! The paper's Section 5 research-opportunities list calls out
//! "considering the impact of concurrent queries" — a single
//! [`System::run`](crate::System::run) cannot answer that, because it resets
//! every timeline before the query starts.
//! [`System::run_workload`](crate::System::run_workload) keeps the machine hot
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
//! [`WorkloadOptions::fair_queueing`]`(false)`), per-tenant queue bounds
//! override the workload-level one, and an item's
//! [`WorkloadItem::cancel_at`] instant abandons it — mid-flight if it
//! holds a device session, whose slot frees at the cancel instant.
//!
//! Everything is simulated time: a fixed seed replays the identical
//! schedule, and answers are bit-identical to isolated runs regardless of
//! interleaving or sharing.

use crate::breaker::BreakerTransition;
use crate::builder::{ConfigError, RoutePolicy};
use crate::serving::{TenantReport, TenantSpec};
use smartssd_query::{Query, QueryResult, Route};
use smartssd_sim::{ArrivalGen, FaultCounters, LatencyStats, RunTrace, SimTime, TraceLevel};
use std::collections::HashSet;
use std::sync::Arc;

/// One query of a workload: what to run, how to route it, when it arrives,
/// which tenant it belongs to, and when (if ever) its client gives up.
#[derive(Debug, Clone)]
pub struct WorkloadItem {
    /// The query to run. Shared: [`Workload::burst`],
    /// [`Workload::open_stream`] and [`ArrivalStream`](crate::ArrivalStream) hand every item of
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

// The scheduler copies an item per arrival and parks one per waiter, so it
// stays at 40 bytes (a one-byte route policy among them).
const _: () = assert!(std::mem::size_of::<WorkloadItem>() <= 40);

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

/// A deterministic stream of queries submitted to one [`System`](crate::System).
///
/// Build one explicitly with [`Workload::push`], as a burst of simultaneous
/// arrivals with [`Workload::burst`], as a seeded open-arrival stream with
/// [`Workload::open_stream`], or from per-tenant loads with
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
        let shared = Arc::new(query.clone());
        let mut w = Self::new();
        for arrival in ArrivalGen::new(mean_gap, seed).arrivals(n) {
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
    /// same path [`System::run`](crate::System::run) takes for device-routed
    /// queries.
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

/// Per-workload knobs for
/// [`System::run_workload`](crate::System::run_workload), built fluently:
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
/// [`System::run_workload`](crate::System::run_workload) validates again
/// itself, surfacing the same [`ConfigError`] as
/// [`RunErrorKind::Config`](crate::RunErrorKind::Config), so a bad registry
/// can never start a run.
#[derive(Debug, Clone)]
pub struct WorkloadOptions {
    interface: InterfaceMode,
    verbosity: TraceLevel,
    queue_bound: Option<usize>,
    deadline: Option<SimTime>,
    tenants: Vec<TenantSpec>,
    fair: bool,
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
    /// hopelessly late. Unset never sheds on time.
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

    /// The queue bound that applies to `tenant`: its own, else the
    /// workload-level default.
    pub(super) fn queue_bound_for(&self, tenant: usize) -> Option<usize> {
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
    /// a session fault; the failed host pass's start for a read failure;
    /// the dispatch instant for a resolution error).
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
    /// Shed when its turn came: it had waited past the
    /// [`WorkloadOptions::deadline`] before service could begin.
    DeadlineMissed(ShedQuery),
    /// Abandoned at its [`WorkloadItem::cancel_at`] instant — before
    /// service if it was still waiting, or mid-flight with its device
    /// session closed early and the slot freed at the cancel instant.
    Canceled(ShedQuery),
    /// Died on an unrecoverable fault (wire corruption, validation
    /// failure, a host read that exhausted its retries, or a resolution
    /// error); the rest of the workload ran on.
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

/// Summary of a closed-loop query stream
/// ([`System::run_stream`](crate::System::run_stream)): queries run
/// back-to-back on the device route, breaker state persists across them on
/// the system's monotone breaker clock, and host-side caches are cleared
/// before each query — the cold-run protocol every reproduced figure uses.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// One terminal [`ArrivalOutcome`] per stream query, in submission
    /// order, recorded through the same accounting as a
    /// [`WorkloadReport`]. In a closed loop each query "arrives" when its
    /// predecessor finishes; a query that dies on an unrecoverable error is
    /// recorded as [`ArrivalOutcome::Failed`] and ends the stream (the
    /// partial report is still returned).
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

mod attempt;
mod report;
mod sched;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RunOptions, SystemBuilder};
    use crate::config::DeviceKind;
    use crate::system::{RunErrorKind, System};
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
