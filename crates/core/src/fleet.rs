//! A fleet of Smart SSDs coordinated by the host — the paper's parallel-DBMS
//! sketch (Section 4.3) built on every fault-tolerance layer the test bed
//! has grown since the single-device protocol.
//!
//! The Discussion section imagines "the host machine ... simply be\[ing\] the
//! coordinator that stages computation across an array of Smart SSDs, making
//! the system look like a parallel DBMS with the master node being the host
//! server, and the worker nodes ... being the Smart SSDs." That coordinator
//! is [`System`]: it holds 1..N Smart SSDs behind one host link, and its
//! scheduler's device attempt scatters a query over all of them and gathers
//! the partials (`workload/sched.rs`). [`SmartSsdFleet`] is a view over a
//! `System` built with N devices — it owns no link, host CPU, tracer, fault
//! counters or breaker clock of its own — plus the [`FleetOptions`] its
//! queries run under. A fleet query is a one-arrival workload at time zero,
//! exactly as [`System::run`] is:
//!
//! - **Sharding.** A table is horizontally partitioned round-robin across N
//!   devices; each device holds its own partition image and catalog entry
//!   under the shared table name.
//! - **Scatter.** Each query fans out as one pushdown session per shard,
//!   driven by the session protocol under the configured
//!   [`SessionPolicy`](smartssd_query::SessionPolicy)
//!   (bounded `GET` retries, exponential backoff, session timeout). In
//!   [`InterfaceMode::Linked`] the `OPEN` payloads serialize over the shared
//!   host link, exactly like single-device device-routed runs; in
//!   [`InterfaceMode::Direct`] sessions open in place at time zero (the
//!   `repro array` experiment's shape).
//! - **Gather.** Aggregate partials return over the shared link (the bus
//!   serializes them) and merge on the host; finalization happens once, on
//!   the merged states, so non-distributive aggregates like AVG stay exact.
//! - **Failure awareness.** Every device carries its own
//!   [`CircuitBreaker`](crate::CircuitBreaker) and is its own crash domain:
//!   a recoverable session fault (uncorrectable flash, firmware crash, hang,
//!   timeout) degrades *that shard only* to the host block path — a
//!   separate failure domain that survives firmware crashes — while the
//!   other N−1 shards proceed on the device route. One dead device out of
//!   16 costs roughly one shard of throughput, not an outage.
//! - **Hedged reads.** Optionally, every live shard whose completion
//!   estimate lags the fleet median is raced by a host block-path re-run,
//!   under a fleet-wide retry budget; whichever copy finishes first supplies
//!   the partial. Hedging never changes answers, only timing (both compute
//!   the same partial over the same rows).
//!
//! Device executions are embarrassingly parallel: each [`SmartSsd`] owns
//! private timelines, so the scatter runs the open/execute phase through
//! `exec::par`'s chunked fork/join — at most `default_workers()` real
//! threads a query, none on a one-CPU host — with bit-identical simulated
//! results. A panic in a device's open is caught and surfaced as
//! [`RunErrorKind::DeviceThread`] instead of aborting the process.

use crate::breaker::{BreakerState, BreakerTransition};
use crate::builder::{RunOptions, SystemBuilder};
use crate::config::SystemConfig;
pub use crate::shard::ShardOutcome;
use crate::system::{RunError, RunErrorKind, System, Transitions};
use crate::workload::{Acct, ArrivalOutcome, AttemptRules, InterfaceMode, QueryCompletion};
use smartssd_device::SmartSsd;
use smartssd_query::{Query, QueryResult, Route};
use smartssd_sim::{FaultCounters, FaultPlan, LatencyStats, RunTrace, SimTime, Tracer};
use smartssd_storage::{Schema, TableBuilder, Tuple};
use std::sync::Arc;

/// Coordinator knobs for a [`SmartSsdFleet`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// How sessions reach the devices. [`InterfaceMode::Linked`] (the
    /// default) marshals every `OPEN` over the shared host link before the
    /// device starts executing — the full protocol. [`InterfaceMode::Direct`]
    /// opens sessions in place at time zero; results crossing the link on
    /// gather are charged identically in both modes.
    pub interface: InterfaceMode,
    /// Hedged shard reads: every live shard whose device-side completion
    /// estimate exceeds `hedge_factor` times the *median* estimate is raced
    /// by a host block-path re-run, guarded by the retry budget — the shape
    /// a gray fleet needs, where several shards may limp at once. Hedging
    /// never changes answers — both copies compute the same partial — only
    /// timing. Off by default (a hedge burns real link and host-CPU time).
    pub hedge: bool,
    /// Hedge trigger: a shard is hedged when its completion estimate
    /// exceeds `hedge_factor` times the median estimate across live
    /// shards. `0.0` hedges every live shard the budget allows.
    pub hedge_factor: f64,
    /// Retry budget: at most this many hedges are launched per query run.
    /// The budget is fleet-wide, so a gray fleet cannot amplify itself into
    /// a retry storm — once it is spent, further laggards are simply
    /// gathered.
    pub hedge_budget: u32,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            interface: InterfaceMode::Linked,
            hedge: false,
            hedge_factor: 1.5,
            hedge_budget: 2,
        }
    }
}

/// Everything one fleet query run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The merged query result; `elapsed` is the coordinator's completion
    /// time (slowest shard + gather).
    pub result: QueryResult,
    /// Per-shard routes, finish times, and recovery actions.
    pub shards: Vec<ShardOutcome>,
    /// Faults absorbed across every device and every host-side read path.
    pub faults: FaultCounters,
    /// Per-device breaker transitions, re-based onto this run's timeline.
    pub breaker_transitions: Vec<(usize, BreakerTransition)>,
    /// The run's trace, if a sink was attached.
    pub trace: RunTrace,
}

/// Summary of a closed-loop query stream on the fleet (queries run
/// back-to-back; breaker state persists across queries on the fleet's
/// monotone breaker clock; host-side caches are cleared before each query —
/// the cold-run protocol every reproduced figure uses).
#[derive(Debug, Clone)]
pub struct FleetStreamReport {
    /// One terminal [`ArrivalOutcome`] per stream query, in submission
    /// order — the same exhaustive outcome type
    /// [`WorkloadReport`](crate::WorkloadReport) uses, recorded through the
    /// same accounting, so fleet streams and single-device workloads share
    /// one vocabulary. In a closed-loop stream each query "arrives" when
    /// its predecessor finishes; a query that dies on an unrecoverable
    /// error is recorded as [`ArrivalOutcome::Failed`] and ends the stream
    /// (the partial report is still returned).
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

/// A host coordinating N Smart SSDs as one parallel query engine: a view
/// over a [`System`] built with N devices.
pub struct SmartSsdFleet {
    pub(crate) sys: System,
    pub(crate) opts: FleetOptions,
}

impl SmartSsdFleet {
    /// Builds a fleet of `n` identical devices with default coordinator
    /// options.
    ///
    /// # Panics
    ///
    /// Like [`SystemBuilder::build_fleet`], on an invalid configuration or
    /// `n == 0`.
    pub fn new(n: usize, cfg: SystemConfig) -> Self {
        Self::with_options(n, cfg, FleetOptions::default())
    }

    /// Builds a fleet of `n` identical devices.
    ///
    /// # Panics
    ///
    /// Like [`SystemBuilder::build_fleet`], on an invalid configuration or
    /// `n == 0`.
    pub fn with_options(n: usize, cfg: SystemConfig, opts: FleetOptions) -> Self {
        SystemBuilder::from_config(cfg).build_fleet(n, opts)
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.sys.backend.shards().len()
    }

    /// Whether the fleet is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The coordinator options.
    pub fn options(&self) -> &FleetOptions {
        &self.opts
    }

    /// One device, by index (diagnostics: open-session counts, fault
    /// counters).
    pub fn device(&self, d: usize) -> &SmartSsd {
        &self.sys.backend.shards()[d].dev
    }

    /// One device, mutably — the fault-injection hook experiments use to
    /// degrade a single fleet member (e.g. arm its crash rate).
    pub fn device_mut(&mut self, d: usize) -> &mut SmartSsd {
        &mut self.sys.backend.shards_mut()[d].dev
    }

    /// Arms a scripted gray-failure plan across the fleet: each device
    /// gets its own per-device view, split between its flash path
    /// (slowdown windows, ECC bursts) and its smart runtime (crash
    /// instants, CPU slowdowns). An empty plan disarms. Scenarios replay
    /// bit-exactly — the plan carries no randomness at all.
    pub fn arm_fault_plan(&mut self, plan: &FaultPlan) {
        for (d, shard) in self.sys.backend.shards_mut().iter_mut().enumerate() {
            let view = plan.for_device(d);
            shard.dev.flash.arm_fault_plan(view.clone());
            shard.dev.config_mut().fault_plan = view;
        }
    }

    /// Device `d`'s breaker state.
    pub fn breaker_state(&self, d: usize) -> BreakerState {
        self.sys.backend.shards()[d].breaker.state()
    }

    /// Loads a table partitioned round-robin across the devices; each
    /// device registers its own partition under the shared name. A row that
    /// does not match `schema` is a [`RunErrorKind::Row`] naming its index
    /// in `rows`, and no device is written: every partition is built before
    /// the first is loaded.
    pub fn load_partitioned<I>(
        &mut self,
        name: &str,
        schema: &Arc<Schema>,
        rows: I,
    ) -> Result<(), RunError>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let n = self.len();
        // Buffer each partition's rows, then build its pages in one pass,
        // so a device's pages sit together in memory.
        let mut partitions: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        for (i, row) in rows.into_iter().enumerate() {
            partitions[i % n].push(row);
        }
        let mut images = Vec::with_capacity(n);
        for (d, part) in partitions.into_iter().enumerate() {
            let mut b = TableBuilder::new(name, Arc::clone(schema), self.sys.cfg.layout);
            b.try_extend(part).map_err(|mut e| {
                e.row = e.row * n as u64 + d as u64;
                RunError::from_kind(RunErrorKind::Row(e))
            })?;
            images.push(b.finish());
        }
        let first_lba = self.sys.next_lba;
        for (d, img) in images.iter().enumerate() {
            self.sys.load_image(d, name, img, first_lba)?;
        }
        Ok(())
    }

    /// Ends the load phase: discards load-time timing on every device, the
    /// link, and the host CPU.
    pub fn finish_load(&mut self) {
        self.sys.finish_load();
    }

    /// Empties every shard's host-side buffer pool (cold-run protocol).
    pub fn clear_host_cache(&mut self) {
        self.sys.clear_cache();
    }

    /// One query as one arrival at time zero on the system's scheduler,
    /// forced onto the device route of every shard.
    fn run_one(
        &mut self,
        query: &Query,
    ) -> Result<(QueryCompletion, Transitions, RunTrace), RunError> {
        let rules = AttemptRules {
            open_linked: self.opts.interface == InterfaceMode::Linked,
            // The paper's minimal coordinator opens in place, but results
            // still return over the one link the devices share.
            get_linked: true,
            hedge: (self.opts.hedge).then_some((self.opts.hedge_factor, self.opts.hedge_budget)),
        };
        let run = RunOptions::routed(Route::Device);
        let done = self.sys.run_single(query, run, rules);
        done.map_err(|e| self.sys.with_faults(e))
    }

    /// Runs an aggregation query across every shard and merges the partials
    /// on the host. Per-run timing starts at zero (timing state is reset;
    /// breaker state persists on the system's monotone clock).
    pub fn run_agg(&mut self, query: &Query) -> Result<FleetReport, RunError> {
        let (done, breaker_transitions, trace) = self.run_one(query)?;
        let shards = self.sys.backend.shards().iter();
        Ok(FleetReport {
            result: done.result,
            shards: shards.map(|s| s.last.clone()).collect(),
            faults: self.sys.current_faults(),
            breaker_transitions,
            trace,
        })
    }

    /// Runs `queries` back-to-back as a closed-loop stream: each query's
    /// timing starts at zero, breaker state carries across queries on the
    /// system's monotone clock, and host-side caches are cleared before
    /// each query (the cold-run protocol). Returns throughput and latency
    /// over the whole stream, plus one [`ArrivalOutcome`] per query on the
    /// stream's cumulative timeline (query `i` "arrives" when query `i-1`
    /// finishes). A query that dies on an unrecoverable error becomes an
    /// [`ArrivalOutcome::Failed`] outcome and ends the stream early; the
    /// report still covers everything that ran, so `Ok` is returned and
    /// the failure is visible in `outcomes`/`failed` rather than erasing
    /// the completed work.
    pub fn run_stream(&mut self, queries: &[Query]) -> Result<FleetStreamReport, RunError> {
        let mut acct = Acct::new(queries.len(), 0, Tracer::none());
        let mut faults = FaultCounters::default();
        let (mut host_shard_runs, mut fallbacks) = (0, 0);
        for (i, q) in queries.iter().enumerate() {
            self.clear_host_cache();
            let arrival = acct.makespan;
            let mut done = match self.run_one(q) {
                Ok((done, ..)) => done,
                Err(e) => {
                    faults.absorb(e.fault_counters());
                    acct.fail(i, 0, (&q.name, arrival), arrival, e);
                    break;
                }
            };
            faults.absorb(&self.sys.current_faults());
            let shards = self.sys.backend.shards().iter().map(|s| &s.last);
            host_shard_runs += shards.clone().filter(|s| s.route == Route::Host).count() as u64;
            fallbacks += shards.filter(|s| s.fell_back).count() as u64;
            (done.index, done.arrival) = (i, arrival);
            done.finished_at = arrival + done.latency;
            acct.complete(0, done);
        }
        let secs = acct.makespan.as_secs_f64();
        let throughput_qps = if secs > 0.0 {
            acct.total.completed as f64 / secs
        } else {
            0.0
        };
        Ok(FleetStreamReport {
            queries: acct.total.completed as usize,
            // A failure ends the stream early, leaving the tail unrecorded.
            outcomes: acct.outcomes.into_iter().flatten().collect(),
            failed: acct.total.failed,
            makespan: acct.makespan,
            throughput_qps,
            latency: LatencyStats::from_sample(&acct.total.latencies),
            faults,
            host_shard_runs,
            fallbacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceKind;
    use smartssd_exec::spec::ScanAggSpec;
    use smartssd_query::{Finalize, OpTemplate};
    use smartssd_sim::FaultPlan;
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout};

    const N_ROWS: i32 = 120_000;

    fn rows() -> Vec<Tuple> {
        (0..N_ROWS)
            .map(|k| vec![Datum::I32(k), Datum::I64(k as i64)] as Tuple)
            .collect()
    }

    fn schema() -> Arc<Schema> {
        Schema::from_pairs(&[("k", DataType::Int32), ("v", DataType::Int64)])
    }

    fn count_query() -> Query {
        Query {
            name: "count".into(),
            op: OpTemplate::ScanAgg {
                table: "t".into(),
                spec: ScanAggSpec {
                    pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(i64::MAX)),
                    aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(1))],
                },
            },
            finalize: Finalize::AggRow,
        }
    }

    fn fleet(n: usize, opts: FleetOptions) -> SmartSsdFleet {
        fleet_with(
            n,
            opts,
            SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax),
        )
    }

    fn fleet_with(n: usize, opts: FleetOptions, cfg: SystemConfig) -> SmartSsdFleet {
        let mut fleet = SmartSsdFleet::with_options(n, cfg, opts);
        fleet.load_partitioned("t", &schema(), rows()).unwrap();
        fleet.finish_load();
        fleet
    }

    fn assert_answers(r: &FleetReport) {
        assert_eq!(r.result.agg_values[0], N_ROWS as i128);
        assert_eq!(r.result.agg_values[1], (0..N_ROWS as i128).sum::<i128>());
    }

    /// The whole-run window every scenario below uses: comfortably longer
    /// than any fleet run over this table.
    fn all_run() -> (SimTime, SimTime) {
        (SimTime::ZERO, SimTime::from_secs(3600))
    }

    /// A config whose embedded CPU is so weak the device route is
    /// CPU-bound. A slowdown window then inflates the device session far
    /// past what the host block path pays (the hedge shares the gray
    /// shard's *flash* occupancy, but never its crippled CPU), giving the
    /// host copy a race it can win.
    fn weak_cpu_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax);
        cfg.smart.cpu_hz = 40_000_000;
        cfg
    }

    #[test]
    fn hedging_races_a_gray_shard_without_changing_answers() {
        let (from, until) = all_run();
        let plan = FaultPlan::new().slowdown(2, 8, from, until);

        // Gray device, hedging on: shard 2's estimate exceeds 1.5x the
        // median, so a host copy races it. The copy shares the gray
        // shard's flash timelines, so the healthy-but-slow session still
        // delivers first — the race is visible in the counters, and the
        // answer is untouched either way.
        let opts = FleetOptions {
            hedge: true,
            ..FleetOptions::default()
        };
        let mut hedged = fleet_with(4, opts, weak_cpu_cfg());
        hedged.arm_fault_plan(&plan);
        let hedged_r = hedged.run_agg(&count_query()).unwrap();
        assert_answers(&hedged_r);
        assert_eq!(hedged_r.faults.hedges, 1, "only the gray shard is raced");
        assert_eq!(hedged_r.faults.hedge_denied, 0);
        assert!(hedged_r.shards[2].hedged);
        assert!(
            hedged_r.shards.iter().filter(|s| s.hedged).count() == 1,
            "healthy shards are never hedged"
        );
    }

    #[test]
    fn hedge_doubles_as_prelaunched_recovery_when_the_session_dies() {
        // Shard 2 is gray (8x slowdown marks it for hedging) and then its
        // firmware crashes at the first gather-time poll. The hedge copy
        // is already running when the fault hits, so it supplies the
        // partial — a hedge win by default — and the answer is exact.
        let (from, until) = all_run();
        let plan = FaultPlan::new()
            .slowdown(2, 8, from, until)
            .crash_at(2, SimTime::from_millis(1));
        let opts = FleetOptions {
            hedge: true,
            ..FleetOptions::default()
        };
        let mut f = fleet_with(4, opts, weak_cpu_cfg());
        f.arm_fault_plan(&plan);
        let r = f.run_agg(&count_query()).unwrap();
        assert_answers(&r);
        assert_eq!(r.faults.hedges, 1);
        assert_eq!(r.faults.hedge_wins, 1);
        assert!(r.shards[2].hedged && r.shards[2].hedge_won);
        assert!(r.shards[2].fell_back, "the session fault is still booked");
        assert_eq!(r.shards[2].route, Route::Host);
        assert_eq!(r.faults.fallbacks, 1);
    }

    #[test]
    fn hedge_budget_bounds_the_race_count() {
        // hedge_factor 0 marks every live shard; a budget of 1 allows
        // exactly one race and counts every denial.
        let opts = FleetOptions {
            hedge: true,
            hedge_factor: 0.0,
            hedge_budget: 1,
            ..FleetOptions::default()
        };
        let mut f = fleet(4, opts);
        let r = f.run_agg(&count_query()).unwrap();
        assert_answers(&r);
        assert_eq!(r.faults.hedges, 1, "budget caps hedges fleet-wide");
        assert_eq!(r.faults.hedge_denied, 3);
        assert_eq!(r.shards.iter().filter(|s| s.hedged).count(), 1);
    }

    #[test]
    fn scripted_slowdown_slows_the_fleet_and_replays_bit_exact() {
        let (from, until) = all_run();
        let mut clean = fleet(4, FleetOptions::default());
        let clean_r = clean.run_agg(&count_query()).unwrap();
        assert_answers(&clean_r);

        let mut gray = fleet(4, FleetOptions::default());
        gray.arm_fault_plan(&FaultPlan::new().slowdown(1, 8, from, until));
        let first = gray.run_agg(&count_query()).unwrap();
        assert_answers(&first);
        assert!(
            first.result.elapsed > clean_r.result.elapsed,
            "an 8x gray device must slow the gather"
        );
        // Only device 1 is afflicted; the others finish on clean timing.
        assert!(first.shards[1].finished_at > clean_r.shards[1].finished_at);
        // Same plan, same fleet, second run: bit-exact replay.
        let second = gray.run_agg(&count_query()).unwrap();
        assert_eq!(first.result.elapsed, second.result.elapsed);
        for (a, b) in first.shards.iter().zip(second.shards.iter()) {
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let mut plain = fleet(4, FleetOptions::default());
        let plain_r = plain.run_agg(&count_query()).unwrap();
        let mut armed = fleet(4, FleetOptions::default());
        armed.arm_fault_plan(&FaultPlan::new());
        let armed_r = armed.run_agg(&count_query()).unwrap();
        assert_eq!(plain_r.result.elapsed, armed_r.result.elapsed);
        assert_eq!(plain_r.result.agg_values, armed_r.result.agg_values);
    }

    /// Multi-tenant serving over a fleet rides the same scheduler as a
    /// single device: a two-tenant stream (weights 4/1, lanes 0/1, the
    /// batch tenant abandoning late arrivals) over four devices waits in
    /// fair queueing for every device's slot at once, is canceled in the
    /// queue or mid-flight, leaks no session, answers every completion
    /// exactly as a lone query would, and replays bit-exact.
    #[test]
    fn two_tenant_serving_stream_over_a_four_device_system() {
        use crate::serving::{TenantLoad, TenantSpec};
        use crate::workload::WorkloadOptions;
        const PER_TENANT: usize = 40;
        let mut f = fleet(4, FleetOptions::default());
        let unit = f.run_agg(&count_query()).unwrap().result.elapsed;
        // Each tenant alone offers the fleet twice what it can serve.
        let gap = SimTime::from_nanos(unit.as_nanos() / 8);
        let load = |name: &str, weight, lane| {
            let spec = TenantSpec::new(name).weight(weight).lane(lane);
            TenantLoad::new(spec, count_query(), PER_TENANT, gap)
        };
        let loads = [
            load("interactive", 4, 0),
            load("batch", 1, 1).cancel_after(SimTime::from_nanos(unit.as_nanos() * 3)),
        ];
        let mut serve = || {
            let rep = f
                .sys
                .run_serving(&loads, 42, WorkloadOptions::new())
                .unwrap();
            assert_eq!(f.sys.open_device_sessions(), 0, "no leaked session");
            rep
        };
        let first = serve();
        assert_eq!(first.outcomes.len(), 2 * PER_TENANT);
        assert_eq!(
            first.completions.len() as u64 + first.canceled,
            2 * PER_TENANT as u64,
            "every arrival completes or is abandoned"
        );
        assert_eq!(first.tenants[0].completed, PER_TENANT as u64);
        assert!(first.canceled > 0, "the overloaded batch lane abandons");
        for done in &first.completions {
            assert_eq!(done.route, Route::Device);
            assert_eq!(done.result.agg_values[0], N_ROWS as i128);
            assert_eq!(done.result.agg_values[1], (0..N_ROWS as i128).sum::<i128>());
        }
        assert_eq!(format!("{first:?}"), format!("{:?}", serve()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Hedging's retry budget is a hard cap, never a target: under any
        /// mix of per-shard slowdowns, hedge aggressiveness, and budget
        /// size, the fleet launches at most `hedge_budget` host copies
        /// (the rest are counted as denied), the answer stays bit-exact,
        /// and a replay reproduces the run to the nanosecond.
        #[test]
        fn hedges_never_exceed_the_retry_budget(
            factors in proptest::collection::vec(1u32..12, 4),
            hedge_factor in 0u32..4,
            budget in 0u32..5,
            weak_cpu in proptest::prelude::any::<bool>(),
        ) {
            let (from, until) = all_run();
            let mut plan = FaultPlan::new();
            for (d, &f) in factors.iter().enumerate() {
                if f > 1 {
                    plan = plan.slowdown(d, f, from, until);
                }
            }
            let opts = FleetOptions {
                hedge: true,
                hedge_factor: hedge_factor as f64 * 0.5,
                hedge_budget: budget,
                ..FleetOptions::default()
            };
            let cfg = if weak_cpu {
                weak_cpu_cfg()
            } else {
                SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax)
            };
            let run = || {
                let mut f = fleet_with(factors.len(), opts.clone(), cfg.clone());
                f.arm_fault_plan(&plan);
                f.run_agg(&count_query()).unwrap()
            };
            let r = run();

            assert_answers(&r);
            let hedged = r.shards.iter().filter(|s| s.hedged).count() as u64;
            proptest::prop_assert_eq!(r.faults.hedges, hedged);
            proptest::prop_assert!(
                r.faults.hedges <= budget as u64,
                "hedges {} exceed budget {}",
                r.faults.hedges,
                budget
            );
            // Denials are only ever the budget refusing a marked laggard,
            // and a won race implies a launched hedge.
            proptest::prop_assert!(r.faults.hedge_wins <= r.faults.hedges);
            if budget > 0 && r.faults.hedge_denied > 0 {
                proptest::prop_assert_eq!(r.faults.hedges, budget as u64);
            }

            // Bit-exact replay on an identically built fleet, hedging
            // decisions included.
            let again = run();
            proptest::prop_assert_eq!(again.result.elapsed, r.result.elapsed);
            proptest::prop_assert_eq!(again.faults, r.faults);
            for (a, b) in r.shards.iter().zip(again.shards.iter()) {
                proptest::prop_assert_eq!(a.finished_at, b.finished_at);
                proptest::prop_assert_eq!(a.hedged, b.hedged);
            }
        }
    }
}
