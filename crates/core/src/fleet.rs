//! The old fleet front door, kept only for the frozen benchmark that still
//! imports it: a thin shim over [`System`]. An N-device Smart SSD array is an
//! ordinary `System` — built with [`SystemBuilder::devices`] (and
//! [`SystemBuilder::hedge`]), loaded with [`System::load_partitioned`], and
//! queried with [`System::run`] on a forced device route — and everything
//! else in the workspace uses that API.

use crate::{HedgePolicy, InterfaceMode, Query, Route, RunError, RunOptions};
use crate::{RunReport, System, SystemBuilder};

#[doc(hidden)]
pub type SmartSsdFleet = System;

#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct FleetOptions {
    pub interface: InterfaceMode,
    pub hedge: bool,
    pub hedge_factor: f64,
    pub hedge_budget: u32,
}

#[doc(hidden)]
impl Default for FleetOptions {
    fn default() -> Self {
        let hedge = HedgePolicy::default();
        Self {
            interface: InterfaceMode::Linked,
            hedge: false,
            hedge_factor: hedge.factor,
            hedge_budget: hedge.budget,
        }
    }
}

#[doc(hidden)]
impl SystemBuilder {
    /// `devices(n)` plus the hedge policy `opts` describes.
    ///
    /// # Panics
    ///
    /// On an invalid configuration, and on any interface but the linked
    /// protocol, the only one an array runs.
    pub fn build_fleet(self, n: usize, opts: FleetOptions) -> System {
        assert_eq!(opts.interface, InterfaceMode::Linked, "arrays run linked");
        let (factor, budget) = (opts.hedge_factor, opts.hedge_budget);
        let hedge = opts.hedge.then_some(HedgePolicy { factor, budget });
        self.devices(n).tweak(|c| c.hedge = hedge).build()
    }
}

#[doc(hidden)]
impl System {
    /// [`System::run`] with the device route forced.
    pub fn run_agg(&mut self, query: &Query) -> Result<RunReport, RunError> {
        self.run(query, RunOptions::routed(Route::Device))
    }
}

/// The array behaviors the shim's callers rely on, through the `System`
/// API: hedging, scripted gray failures, and serving over four devices.
#[cfg(test)]
mod tests {
    use crate::builder::{RunOptions, SystemBuilder};
    use crate::config::{DeviceKind, HedgePolicy, SystemConfig};
    use crate::serving::{TenantLoad, TenantSpec};
    use crate::system::{RunReport, System};
    use crate::workload::{WorkloadOptions, WorkloadReport};
    use smartssd_exec::spec::ScanAggSpec;
    use smartssd_query::{Finalize, OpTemplate, Query, QueryResult, Route};
    use smartssd_sim::{CounterSink, FaultPlan, SimTime, TraceLevel};
    use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
    use smartssd_storage::{DataType, Datum, Layout, Schema, Tuple};
    use std::sync::Arc;

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

    fn smart() -> SystemBuilder {
        SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
    }

    /// An `n`-device array built by `b`, the table partitioned across it.
    fn array_with(b: SystemBuilder, n: usize) -> System {
        let mut sys = b.devices(n).build();
        sys.load_partitioned("t", &schema(), rows()).unwrap();
        sys.finish_load();
        sys
    }

    fn array(n: usize) -> System {
        array_with(smart(), n)
    }

    fn hedged(policy: HedgePolicy, cfg: SystemConfig) -> SystemBuilder {
        SystemBuilder::from_config(cfg).hedge(policy)
    }

    /// One query with the device route forced on every shard.
    fn run(sys: &mut System) -> RunReport {
        let forced = RunOptions::routed(Route::Device);
        sys.run(&count_query(), forced).unwrap()
    }

    fn assert_answers(r: &QueryResult) {
        assert_eq!(r.agg_values[0], N_ROWS as i128);
        assert_eq!(r.agg_values[1], (0..N_ROWS as i128).sum::<i128>());
    }

    /// The whole-run window every scenario below uses: comfortably longer
    /// than any array run over this table.
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
        let b = hedged(HedgePolicy::default(), weak_cpu_cfg());
        let mut sys = array_with(b, 4);
        sys.arm_fault_plan(&plan);
        let r = run(&mut sys);
        assert_answers(&r.result);
        assert_eq!(r.faults.hedges, 1, "only the gray shard is raced");
        assert_eq!(r.faults.hedge_denied, 0);
        assert!(r.shards[2].hedged);
        assert!(
            r.shards.iter().filter(|s| s.hedged).count() == 1,
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
        let mut sys = array_with(hedged(HedgePolicy::default(), weak_cpu_cfg()), 4);
        sys.arm_fault_plan(&plan);
        let r = run(&mut sys);
        assert_answers(&r.result);
        assert_eq!(r.faults.hedges, 1);
        assert_eq!(r.faults.hedge_wins, 1);
        assert!(r.shards[2].hedged && r.shards[2].hedge_won);
        assert!(r.shards[2].fell_back, "the session fault is still booked");
        assert_eq!(r.shards[2].route, Route::Host);
        assert_eq!(r.faults.fallbacks, 1);
    }

    #[test]
    fn hedge_budget_bounds_the_race_count() {
        // Factor 0 marks every live shard; a budget of 1 allows exactly one
        // race and counts every denial.
        let policy = HedgePolicy {
            factor: 0.0,
            budget: 1,
        };
        let cfg = SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax);
        let r = run(&mut array_with(hedged(policy, cfg), 4));
        assert_answers(&r.result);
        assert_eq!(r.faults.hedges, 1, "the budget caps hedges per attempt");
        assert_eq!(r.faults.hedge_denied, 3);
        assert_eq!(r.shards.iter().filter(|s| s.hedged).count(), 1);
    }

    #[test]
    fn scripted_slowdown_slows_the_fleet_and_replays_bit_exact() {
        let (from, until) = all_run();
        let clean = run(&mut array(4));
        assert_answers(&clean.result);

        let mut gray = array(4);
        gray.arm_fault_plan(&FaultPlan::new().slowdown(1, 8, from, until));
        let first = run(&mut gray);
        assert_answers(&first.result);
        assert!(
            first.result.elapsed > clean.result.elapsed,
            "an 8x gray device must slow the gather"
        );
        // Only device 1 is afflicted; the others finish on clean timing.
        assert!(first.shards[1].finished_at > clean.shards[1].finished_at);
        // Same plan, same array, second run: bit-exact replay.
        let second = run(&mut gray);
        assert_eq!(first.result.elapsed, second.result.elapsed);
        for (a, b) in first.shards.iter().zip(second.shards.iter()) {
            assert_eq!(a.finished_at, b.finished_at);
        }
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let plain = run(&mut array(4));
        let mut armed = array(4);
        armed.arm_fault_plan(&FaultPlan::new());
        let armed = run(&mut armed);
        assert_eq!(plain.result.elapsed, armed.result.elapsed);
        assert_eq!(plain.result.agg_values, armed.result.agg_values);
    }

    /// A plan given to the builder arms each device with its own view,
    /// exactly as `arm_fault_plan` does on the built system: the two agree
    /// to the nanosecond, and only the named device's CPU works longer than
    /// on a clean array.
    #[test]
    fn builder_fault_plan_arms_each_device_its_own_view() {
        let (from, until) = all_run();
        let plan = FaultPlan::new().slowdown(2, 8, from, until);
        let mut clean = array(4);
        let mut built = array_with(smart().fault_plan(&plan), 4);
        let mut armed = array(4);
        armed.arm_fault_plan(&plan);
        let (c, b, a) = (run(&mut clean), run(&mut built), run(&mut armed));
        assert_answers(&b.result);
        assert_eq!(b.result.elapsed, a.result.elapsed);
        assert_eq!(format!("{:?}", b.shards), format!("{:?}", a.shards));
        assert!(b.result.elapsed > c.result.elapsed);
        let busy = |sys: &System, d| sys.device(d).cpu().busy_total_ns();
        for d in 0..4 {
            assert_eq!(busy(&built, d), busy(&armed, d), "device {d}");
            let slowed = busy(&built, d) > busy(&clean, d);
            assert_eq!(slowed, d == 2, "device {d}");
        }
    }

    /// A two-tenant stream (weights 4/1, lanes 0/1, the batch tenant
    /// abandoning late arrivals), each tenant alone offering four devices
    /// twice what they can serve, traced at protocol level. Checks that no
    /// session leaks, that every completion answers exactly as a lone query
    /// would, and that a cold replay is `Debug`-identical; returns the
    /// report.
    fn serve_two_tenants(sys: &mut System, unit: SimTime) -> WorkloadReport {
        const PER_TENANT: usize = 40;
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
            // A hedge's host copy fills its shard's buffer pool; a replay
            // starts from the same cold pool.
            sys.clear_cache();
            let opts = WorkloadOptions::new().verbosity(TraceLevel::Protocol);
            let rep = sys.run_serving(&loads, 42, opts).unwrap();
            assert_eq!(sys.open_device_sessions(), 0, "no leaked session");
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
            assert_answers(&done.result);
        }
        assert_eq!(format!("{first:?}"), format!("{:?}", serve()));
        first
    }

    /// Multi-tenant serving over an array rides the same scheduler as a
    /// single device: it waits in fair queueing for every device's slot at
    /// once, parks before sending any `OPEN` a full device would refuse,
    /// and is canceled in the queue or mid-flight.
    #[test]
    fn two_tenant_serving_stream_over_a_four_device_system() {
        let mut sys = array_with(smart().trace(CounterSink::new()), 4);
        let unit = run(&mut sys).result.elapsed;
        let rep = serve_two_tenants(&mut sys, unit);
        assert_eq!(rep.faults.hedges, 0);
        let trace = rep.trace.counters().expect("a protocol-level trace");
        assert_eq!(trace.instant_count("session-fault"), 0, "a refused OPEN");
    }

    /// The same stream with one device 8x slow and every live shard
    /// hedged: serving hedges through the same device attempt a single run
    /// does, and answers, session hygiene and replay hold.
    #[test]
    fn hedged_two_tenant_serving_stream_over_a_gray_four_device_system() {
        let unit = run(&mut array(4)).result.elapsed;
        let (from, until) = all_run();
        let plan = FaultPlan::new().slowdown(1, 8, from, until);
        let policy = HedgePolicy {
            factor: 0.0,
            ..HedgePolicy::default()
        };
        let mut sys = array_with(smart().hedge(policy).fault_plan(&plan), 4);
        let rep = serve_two_tenants(&mut sys, unit);
        assert!(rep.faults.hedges > 0, "{:?}", rep.faults);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Hedging's retry budget is a hard cap, never a target: under any
        /// mix of per-shard slowdowns, hedge aggressiveness, and budget
        /// size, an attempt launches at most `budget` host copies (the
        /// rest are counted as denied), the answer stays bit-exact, and a
        /// replay reproduces the run to the nanosecond.
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
            let policy = HedgePolicy {
                factor: hedge_factor as f64 * 0.5,
                budget,
            };
            let cfg = if weak_cpu {
                weak_cpu_cfg()
            } else {
                SystemConfig::new(DeviceKind::SmartSsd, Layout::Pax)
            };
            let once = || {
                let mut sys = array_with(hedged(policy, cfg.clone()), factors.len());
                sys.arm_fault_plan(&plan);
                run(&mut sys)
            };
            let r = once();

            assert_answers(&r.result);
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

            // Bit-exact replay on an identically built array, hedging
            // decisions included.
            let again = once();
            proptest::prop_assert_eq!(again.result.elapsed, r.result.elapsed);
            proptest::prop_assert_eq!(again.faults, r.faults);
            for (a, b) in r.shards.iter().zip(again.shards.iter()) {
                proptest::prop_assert_eq!(a.finished_at, b.finished_at);
                proptest::prop_assert_eq!(a.hedged, b.hedged);
            }
        }
    }
}
