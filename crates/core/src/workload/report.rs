//! Report assembly for a scheduled workload: the one-pass outcome
//! accounting ([`Acct`], [`Tally`]) the scheduler records into, and the
//! [`WorkloadReport`] built from it when the run closes.

use super::{
    ArrivalOutcome, FailedQuery, QueryCompletion, ShedQuery, WorkloadItem, WorkloadOptions,
    WorkloadReport,
};
use crate::serving::TenantReport;
use crate::system::{RunError, RunErrorKind, System};
use smartssd_host::BufferPool;
use smartssd_sim::trace::pid;
use smartssd_sim::{LatencyStats, SimTime, TraceLevel, Tracer};
use std::sync::Arc;

/// Outcome counts: [`Acct`] keeps one for the whole run and one per
/// registered tenant.
#[derive(Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) completed: u64,
    rejected: u64,
    deadline_missed: u64,
    canceled: u64,
    pub(crate) failed: u64,
}

impl Tally {
    fn count(&mut self, o: &ArrivalOutcome) {
        match o {
            ArrivalOutcome::Completed(_) => self.completed += 1,
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
/// the moment it is decided, updating the run's counts, the makespan, the
/// completion log and (when a registry exists) the owning tenant's counts
/// — so report assembly never re-walks the outcome array. The aggregates
/// are order-independent (sums, max, and selection percentiles over the
/// full sample), so recording at decision time is bit-identical to
/// end-of-run passes. The closed loop of [`System::run_stream`] records
/// through the same accounting.
pub(crate) struct Acct {
    pub(crate) outcomes: Vec<Option<ArrivalOutcome>>,
    recorded: usize,
    pub(crate) total: Tally,
    pub(crate) makespan: SimTime,
    /// Empty when no tenant registry exists (no per-tenant reports).
    tenants: Vec<Tally>,
    /// Every completion's latency in record order, and beside it, with a
    /// registry, its tenant: one flat log, bucketed by tenant once, when
    /// the report is built.
    pub(crate) latencies: Vec<SimTime>,
    latency_tenants: Vec<u32>,
    /// The typed error behind the most recent [`ArrivalOutcome::Failed`]
    /// (whose public record carries only its text): [`System::run`]'s
    /// contract returns it instead of an outcome.
    pub(super) dead: Option<RunError>,
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
            tenants: vec![Tally::default(); registered],
            // Sized for every arrival completing, so the log never leaves
            // a trail of outgrown buffers behind it.
            latencies: Vec::with_capacity(total),
            latency_tenants: Vec::with_capacity(if registered > 0 { total } else { 0 }),
            dead: None,
            tracer,
        }
    }

    pub(super) fn record(&mut self, index: usize, tenant: usize, o: ArrivalOutcome) {
        if let ArrivalOutcome::Completed(c) = &o {
            self.makespan = self.makespan.max(c.finished_at);
            self.latencies.push(c.latency);
            if !self.tenants.is_empty() {
                self.latency_tenants.push(tenant as u32);
            }
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
    pub(super) fn invariant_violated(&self) -> RunError {
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
    pub(super) fn shed(
        &mut self,
        (why, wrap): Shed,
        index: usize,
        item: &WorkloadItem,
        at: SimTime,
    ) {
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

    /// Each registered tenant's latency summary: the completion log is
    /// bucketed by tenant in one counting pass (each tenant's cursor starts
    /// at its bucket's end and walks back to its start), then summarized
    /// bucket by bucket in place.
    fn tenant_latencies(&self) -> Vec<LatencyStats> {
        let mut cursor: Vec<usize> = self
            .tenants
            .iter()
            .scan(0, |end, t| {
                *end += t.completed as usize;
                Some(*end)
            })
            .collect();
        let mut buf = vec![SimTime::ZERO; self.latency_tenants.len()];
        for (&t, &latency) in self.latency_tenants.iter().zip(&self.latencies).rev() {
            cursor[t as usize] -= 1;
            buf[cursor[t as usize]] = latency;
        }
        let mut rest = &mut buf[..];
        self.tenants
            .iter()
            .map(|t| {
                let (bucket, tail) = std::mem::take(&mut rest).split_at_mut(t.completed as usize);
                rest = tail;
                LatencyStats::from_buffer(bucket)
            })
            .collect()
    }
}

/// `n` per second of `span`, 0 over an empty span.
pub(super) fn per_sec(n: u64, span: SimTime) -> f64 {
    if span > SimTime::ZERO {
        n as f64 / span.as_secs_f64()
    } else {
        0.0
    }
}

/// Why an arrival was shed, as a `(trace instant, outcome)` pair.
pub(super) type Shed = (&'static str, fn(ShedQuery) -> ArrivalOutcome);
pub(super) const CANCELED: Shed = ("canceled", ArrivalOutcome::Canceled);
pub(super) const DEADLINE_MISSED: Shed = ("deadline-missed", ArrivalOutcome::DeadlineMissed);
pub(super) const REJECTED: Shed = ("rejected", ArrivalOutcome::Rejected);
pub(super) const BROWNED_OUT: Shed = ("browned-out", ArrivalOutcome::Rejected);

impl System {
    /// Closes a scheduled workload and assembles its report. The
    /// per-outcome statistics were gathered incrementally as each outcome
    /// was decided, so assembly never re-walks the outcome array.
    pub(super) fn workload_report(
        &mut self,
        mut acct: Acct,
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
        let outcomes: Vec<ArrivalOutcome> = std::mem::take(&mut acct.outcomes)
            .into_iter()
            .map(|o| o.expect("recorded count checked above"))
            .collect();
        let tenants: Vec<TenantReport> = opts
            .tenants
            .iter()
            .zip(&acct.tenants)
            .zip(acct.tenant_latencies())
            .map(|((s, a), latency)| TenantReport {
                name: s.name.clone(),
                arrivals: a.arrivals(),
                completed: a.completed,
                rejected: a.rejected,
                deadline_missed: a.deadline_missed,
                canceled: a.canceled,
                failed: a.failed,
                latency,
            })
            .collect();
        let mut completions: Vec<Arc<QueryCompletion>> =
            Vec::with_capacity(acct.total.completed as usize);
        completions.extend(outcomes.iter().filter_map(|o| match o {
            ArrivalOutcome::Completed(c) => Some(Arc::clone(c)),
            _ => None,
        }));
        let makespan = acct.makespan;
        let throughput_qps = per_sec(acct.total.completed, makespan);
        let shards = self.backend.shards();
        let flash_reads = shards.iter().map(|s| s.dev.flash.stats().reads).sum();
        let shared_hits = shards.iter().map(|s| s.dev.shared_hits()).sum();
        let (breaker_transitions, trace) =
            self.end_run("workload", makespan, &[("queries", n as f64)]);
        Ok(WorkloadReport {
            makespan,
            throughput_qps,
            latency: LatencyStats::from_buffer(&mut acct.latencies),
            flash_reads,
            shared_hits,
            pool_hits: self.pools().map(BufferPool::hits).sum(),
            pool_misses: self.pools().map(BufferPool::misses).sum(),
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
}
