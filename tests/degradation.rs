//! Differential property tests of graceful degradation under device
//! failure domains.
//!
//! The load-bearing invariants: firmware crashes, reset downtime,
//! circuit-breaker routing, bounded admission, and deadlines are *timing
//! and routing* mechanisms — for any fault schedule, every query that
//! completes must return answers bit-identical to an isolated fault-free
//! run; every arrival must end in exactly one typed outcome; and a fixed
//! seed must replay to the bit.

use proptest::prelude::*;
use smartssd::{
    ArrivalOutcome, BreakerPolicy, DeviceKind, Layout, Route, RoutePolicy, RunOptions, SimTime,
    System, SystemBuilder, Workload, WorkloadOptions, WorkloadReport,
};
use smartssd_exec::spec::ScanAggSpec;
use smartssd_query::{Finalize, OpTemplate, Query};
use smartssd_storage::expr::{AggSpec, CmpOp, Expr, Pred};
use smartssd_storage::{DataType, Datum, Schema, Tuple};
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::from_pairs(&[("a", DataType::Int32), ("b", DataType::Int64)])
}

prop_compose! {
    fn arb_row()(a in -1000i32..1000, b in -1_000_000i64..1_000_000) -> Tuple {
        vec![Datum::I32(a), Datum::I64(b)]
    }
}

/// A Q6-shaped aggregation whose predicate varies per query, so concurrent
/// queries in one workload produce distinct answers.
fn agg_query(cutoff: i64) -> Query {
    Query {
        name: format!("agg<{cutoff}").into(),
        op: OpTemplate::ScanAgg {
            table: "t".into(),
            spec: ScanAggSpec {
                pred: Pred::Cmp(CmpOp::Lt, Expr::col(0), Expr::lit(cutoff)),
                aggs: vec![AggSpec::count(), AggSpec::sum(Expr::col(1))],
            },
        },
        finalize: Finalize::AggRow,
    }
}

/// Injected fault schedule for one generated system.
#[derive(Debug, Clone, Copy)]
struct FaultPlan {
    crash_rate: u32,
    ecc_retry_rate: u32,
    reset_latency_us: u64,
}

fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        prop_oneof![
            Just(0u32),
            Just(u32::MAX / 8),
            Just(u32::MAX / 2),
            Just(u32::MAX),
        ],
        prop_oneof![Just(0u32), Just(u32::MAX / 64)],
        50u64..3_000,
    )
        .prop_map(|(crash_rate, ecc_retry_rate, reset_latency_us)| FaultPlan {
            crash_rate,
            ecc_retry_rate,
            reset_latency_us,
        })
}

fn build_sys(rows: &[Tuple], plan: FaultPlan, breaker: bool) -> System {
    let b = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
        .fault_rates(plan.ecc_retry_rate, 0, 0)
        .crash_faults(plan.crash_rate, SimTime::from_micros(plan.reset_latency_us))
        .tweak(|c| c.smart.max_sessions = 2);
    let b = if breaker {
        b.breaker(BreakerPolicy::enabled())
    } else {
        b
    };
    let mut sys = b.build();
    sys.load_table_rows("t", &schema(), rows.to_vec()).unwrap();
    sys.finish_load();
    sys
}

/// One generated workload query: predicate cutoff and arrival gap from the
/// previous query.
type Item = (i64, u64);

fn workload_of(items: &[Item]) -> Workload {
    let mut w = Workload::new();
    let mut at = SimTime::ZERO;
    for &(cutoff, gap) in items {
        at += SimTime::from_nanos(gap);
        w.push(agg_query(cutoff), RoutePolicy::Natural, at);
    }
    w
}

fn run_degraded(
    rows: &[Tuple],
    items: &[Item],
    plan: FaultPlan,
    breaker: bool,
    opts: WorkloadOptions,
) -> WorkloadReport {
    build_sys(rows, plan, breaker)
        .run_workload(&workload_of(items), opts)
        .expect("crash/ECC faults and shedding must never abort the workload")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under any crash/ECC schedule, with the breaker on or off, every
    /// query that *completes* returns answers bit-identical to an isolated
    /// fault-free host run of the same query.
    #[test]
    fn completed_answers_survive_any_fault_schedule(
        rows in prop::collection::vec(arb_row(), 1..300),
        items in prop::collection::vec((-1000i64..1000, 0u64..2_000_000), 1..6),
        plan in arb_fault_plan(),
        breaker in any::<bool>(),
    ) {
        let rep = run_degraded(&rows, &items, plan, breaker, WorkloadOptions::default());
        // No admission bound, no deadline: every arrival completes.
        prop_assert_eq!(rep.completions.len(), items.len());
        let mut clean = build_sys(&rows, FaultPlan { crash_rate: 0, ecc_retry_rate: 0, reset_latency_us: 100 }, false);
        for c in &rep.completions {
            let isolated = clean
                .run(&agg_query(items[c.index].0), RunOptions::routed(Route::Host))
                .expect("fault-free isolated run");
            prop_assert_eq!(&c.result.agg_values, &isolated.result.agg_values,
                "query {} diverged from its isolated run", c.index);
        }
    }

    /// The circuit breaker changes routing and timing, never answers:
    /// the same faulty workload with the breaker off vs on completes the
    /// same queries with bit-identical aggregates.
    #[test]
    fn breaker_changes_routing_never_answers(
        rows in prop::collection::vec(arb_row(), 1..300),
        items in prop::collection::vec((-1000i64..1000, 0u64..2_000_000), 1..6),
        plan in arb_fault_plan(),
    ) {
        let off = run_degraded(&rows, &items, plan, false, WorkloadOptions::default());
        let on = run_degraded(&rows, &items, plan, true, WorkloadOptions::default());
        prop_assert_eq!(off.completions.len(), on.completions.len());
        for (a, b) in off.completions.iter().zip(on.completions.iter()) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(&a.result.agg_values, &b.result.agg_values);
        }
    }

    /// Outcome conservation: with a bounded queue and a deadline, every
    /// arrival lands in exactly one typed outcome, in submission order,
    /// and the counts add up.
    #[test]
    fn every_arrival_has_exactly_one_outcome(
        rows in prop::collection::vec(arb_row(), 1..200),
        items in prop::collection::vec((-1000i64..1000, 0u64..500_000), 1..8),
        plan in arb_fault_plan(),
        breaker in any::<bool>(),
        queue_bound in 0usize..3,
        deadline_us in 1u64..100_000,
    ) {
        let opts = WorkloadOptions::new()
            .queue_bound(queue_bound)
            .deadline(SimTime::from_micros(deadline_us));
        let rep = run_degraded(&rows, &items, plan, breaker, opts);
        prop_assert_eq!(rep.outcomes.len(), items.len());
        for (i, o) in rep.outcomes.iter().enumerate() {
            prop_assert_eq!(o.index(), i, "outcomes must be in submission order");
        }
        let completed = rep.outcomes.iter().filter(|o| matches!(o, ArrivalOutcome::Completed(_))).count();
        let rejected = rep.outcomes.iter().filter(|o| matches!(o, ArrivalOutcome::Rejected(_))).count();
        let missed = rep.outcomes.iter().filter(|o| matches!(o, ArrivalOutcome::DeadlineMissed(_))).count();
        let canceled = rep.outcomes.iter().filter(|o| matches!(o, ArrivalOutcome::Canceled(_))).count();
        let failed = rep.outcomes.iter().filter(|o| matches!(o, ArrivalOutcome::Failed(_))).count();
        prop_assert_eq!(completed + rejected + missed + canceled + failed, items.len());
        prop_assert_eq!(canceled, 0, "nothing here sets cancel_at");
        prop_assert_eq!(failed, 0, "crash/ECC faults are recoverable");
        prop_assert_eq!(completed, rep.completions.len());
        prop_assert_eq!(rejected as u64, rep.rejected);
        prop_assert_eq!(missed as u64, rep.deadline_missed);
        // Shed queries still return answers for everyone else, identical
        // to isolated fault-free runs.
        let mut clean = build_sys(&rows, FaultPlan { crash_rate: 0, ecc_retry_rate: 0, reset_latency_us: 100 }, false);
        for c in &rep.completions {
            let isolated = clean
                .run(&agg_query(items[c.index].0), RunOptions::routed(Route::Host))
                .expect("fault-free isolated run");
            prop_assert_eq!(&c.result.agg_values, &isolated.result.agg_values);
        }
    }

    /// Determinism: the same seed, fault schedule, and options replay
    /// bit-exactly — outcomes, timings, counters, and breaker transitions.
    #[test]
    fn fixed_seeds_replay_bit_exact(
        rows in prop::collection::vec(arb_row(), 1..200),
        items in prop::collection::vec((-1000i64..1000, 0u64..2_000_000), 1..6),
        plan in arb_fault_plan(),
        breaker in any::<bool>(),
    ) {
        let opts = WorkloadOptions::new()
            .queue_bound(1)
            .deadline(SimTime::from_millis(50));
        let a = run_degraded(&rows, &items, plan, breaker, opts.clone());
        let b = run_degraded(&rows, &items, plan, breaker, opts);
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.throughput_qps.to_bits(), b.throughput_qps.to_bits());
        prop_assert_eq!(a.rejected, b.rejected);
        prop_assert_eq!(a.deadline_missed, b.deadline_missed);
        prop_assert_eq!(a.faults, b.faults);
        prop_assert_eq!(a.breaker_transitions.len(), b.breaker_transitions.len());
        for (x, y) in a.breaker_transitions.iter().zip(b.breaker_transitions.iter()) {
            prop_assert_eq!(x.at, y.at);
            prop_assert_eq!(x.to, y.to);
        }
        prop_assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(b.completions.iter()) {
            prop_assert_eq!(x.index, y.index);
            prop_assert_eq!(x.finished_at, y.finished_at);
            prop_assert_eq!(&x.result.agg_values, &y.result.agg_values);
        }
    }
}
